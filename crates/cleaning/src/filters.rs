use std::ops::Range;

use serde::{Deserialize, Serialize};
use taxitrace_traces::{RoutePoint, TraceColumns};

/// §IV-C post filters: "all trip segments containing less than five route
/// points and longer than 30 km are removed from further analysis."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Minimum route points per segment (paper: 5).
    pub min_points: usize,
    /// Maximum segment length, metres (paper: 30 km).
    pub max_length_m: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self { min_points: 5, max_length_m: 30_000.0 }
    }
}

/// Counts of segments removed per reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FilterStats {
    pub kept: usize,
    pub too_few_points: usize,
    pub too_long: usize,
}

impl FilterConfig {
    /// Whether a segment survives the filters; updates `stats`.
    pub fn admit(&self, points: &[RoutePoint], stats: &mut FilterStats) -> bool {
        if points.len() < self.min_points {
            stats.too_few_points += 1;
            return false;
        }
        if segment_length_m(points) > self.max_length_m {
            stats.too_long += 1;
            return false;
        }
        stats.kept += 1;
        true
    }

    /// Columns-based variant of [`admit`](Self::admit): the same decision
    /// for the sub-range `range` of a session buffer, measuring length over
    /// the contiguous coordinate columns instead of a point slice.
    pub fn admit_range(
        &self,
        cols: &TraceColumns,
        range: Range<usize>,
        stats: &mut FilterStats,
    ) -> bool {
        if range.len() < self.min_points {
            stats.too_few_points += 1;
            return false;
        }
        if cols.length_m(range) > self.max_length_m {
            stats.too_long += 1;
            return false;
        }
        stats.kept += 1;
        true
    }
}

/// Path length of a segment's point sequence, metres.
pub fn segment_length_m(points: &[RoutePoint]) -> f64 {
    points.windows(2).map(|w| w[0].pos.distance(w[1].pos)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn pts(n: usize, step_m: f64) -> Vec<RoutePoint> {
        (0..n)
            .map(|i| RoutePoint {
                point_id: i as u64,
                trip_id: TripId(1),
                taxi: TaxiId(1),
                geo: GeoPoint::new(25.0, 65.0),
                pos: Point::new(i as f64 * step_m, 0.0),
                timestamp: Timestamp::from_secs(i as i64 * 10),
                speed_kmh: 30.0,
                heading_deg: 90.0,
                fuel_ml: 0.0,
                truth: PointTruth { seq: i as u32, element: None },
            })
            .collect()
    }

    #[test]
    fn admits_normal_segment() {
        let mut stats = FilterStats::default();
        assert!(FilterConfig::default().admit(&pts(20, 100.0), &mut stats));
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn rejects_too_few_points() {
        let mut stats = FilterStats::default();
        assert!(!FilterConfig::default().admit(&pts(4, 100.0), &mut stats));
        assert_eq!(stats.too_few_points, 1);
        // Exactly 5 points passes.
        assert!(FilterConfig::default().admit(&pts(5, 100.0), &mut stats));
    }

    #[test]
    fn rejects_over_30km() {
        let mut stats = FilterStats::default();
        // 100 points × 400 m = 39.6 km.
        assert!(!FilterConfig::default().admit(&pts(100, 400.0), &mut stats));
        assert_eq!(stats.too_long, 1);
    }

    #[test]
    fn admit_range_matches_slice_admit() {
        let points = pts(120, 300.0);
        let cols = TraceColumns::from_points(&points);
        let cfg = FilterConfig::default();
        for range in [0..120, 0..4, 10..15, 0..110, 40..40] {
            let mut a = FilterStats::default();
            let mut b = FilterStats::default();
            assert_eq!(
                cfg.admit(&points[range.clone()], &mut a),
                cfg.admit_range(&cols, range.clone(), &mut b),
                "{range:?}"
            );
            assert_eq!(a, b, "{range:?}");
        }
    }

    #[test]
    fn length_computation() {
        assert_eq!(segment_length_m(&pts(11, 50.0)), 500.0);
        assert_eq!(segment_length_m(&pts(1, 50.0)), 0.0);
        assert_eq!(segment_length_m(&[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn mk(i: usize, x: f64, y: f64) -> RoutePoint {
        RoutePoint {
            point_id: i as u64,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, y),
            timestamp: Timestamp::from_secs(i as i64 * 10),
            speed_kmh: 30.0,
            heading_deg: 90.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: i as u32, element: None },
        }
    }

    proptest! {
        /// The step column holds `Point::distance` of each consecutive
        /// pair, and `length_m` over any range equals the point-slice
        /// length, bit for bit: the columnar rules compare the same values
        /// the point-slice rules did. Below two points both are zero, but
        /// the slice sum starts at `-0.0` and `length_m` at `0.0`, so those
        /// ranges compare by value.
        #[test]
        fn columns_measure_like_points(
            moves in proptest::collection::vec((0u8..4, -300f64..300.0, -300f64..300.0), 0..30)
        ) {
            let (mut x, mut y) = (1_000.0, -2_000.0);
            let mut points = Vec::new();
            for (i, (kind, dx, dy)) in moves.into_iter().enumerate() {
                match kind {
                    // A repeated position: a zero-length pair.
                    0 => {}
                    1 => x += dx,
                    _ => {
                        x += dx;
                        y += dy;
                    }
                }
                points.push(mk(i, x, y));
            }
            let cols = TraceColumns::from_points(&points);
            prop_assert_eq!(cols.step_m.len(), points.len().saturating_sub(1));
            for (i, w) in points.windows(2).enumerate() {
                prop_assert_eq!(cols.step_m[i].to_bits(), w[0].pos.distance(w[1].pos).to_bits());
            }
            for a in 0..=points.len() {
                for b in a..=points.len() {
                    let columnar = cols.length_m(a..b);
                    let slice = segment_length_m(&points[a..b]);
                    if b - a < 2 {
                        prop_assert!(columnar == 0.0 && slice == 0.0, "{a}..{b}");
                    } else {
                        prop_assert_eq!(columnar.to_bits(), slice.to_bits(), "{}..{}", a, b);
                    }
                }
            }
        }
    }
}
