//! Struct-of-arrays trace buffers.
//!
//! [`RoutePoint`] is a 112-byte struct; the cleaning rules only touch a
//! couple of its fields per point, so iterating `&[RoutePoint]` drags the
//! whole struct through the cache for every coordinate compared.
//! [`TraceColumns`] gathers the hot fields — planar coordinates, timestamp
//! seconds, OBD speed — into contiguous `f64`/`i64` columns once per
//! session, together with the distance of every consecutive pair; the
//! order-repair path length, the Table 2 pair rules, rule 1/5 runs, length
//! filters and the post-cleaning anomaly scans then stream over dense
//! columns instead of pointer-chasing structs, and none of them computes a
//! consecutive distance again.
//!
//! The columns are a *view* for computation: they carry no identity fields,
//! and materialising kept segments still slices the original point vector.

use std::ops::Range;

use crate::model::RoutePoint;

/// Hot route-point fields in struct-of-arrays layout.
#[derive(Debug, Clone, Default)]
pub struct TraceColumns {
    /// Planar x per point, metres.
    pub x: Vec<f64>,
    /// Planar y per point, metres.
    pub y: Vec<f64>,
    /// Timestamp per point, Unix seconds.
    pub t_secs: Vec<i64>,
    /// OBD speed per point, km/h.
    pub speed_kmh: Vec<f64>,
    /// Distance from each point to the next, metres: `step_m[i]` is
    /// `dist(i, i + 1)`, so there is one entry fewer than points.
    pub step_m: Vec<f64>,
}

impl TraceColumns {
    /// Gathers the hot columns from a point stream (one linear pass) and
    /// measures each consecutive pair once.
    pub fn from_points(points: &[RoutePoint]) -> Self {
        let mut cols = Self {
            x: Vec::with_capacity(points.len()),
            y: Vec::with_capacity(points.len()),
            t_secs: Vec::with_capacity(points.len()),
            speed_kmh: Vec::with_capacity(points.len()),
            step_m: Vec::new(),
        };
        for p in points {
            cols.x.push(p.pos.x);
            cols.y.push(p.pos.y);
            cols.t_secs.push(p.timestamp.secs());
            cols.speed_kmh.push(p.speed_kmh);
        }
        cols.step_m = (1..cols.len()).map(|i| cols.dist(i - 1, i)).collect();
        cols
    }

    /// Keeps only the rows `i` with `keep[i]` (one flag per row), in
    /// order. A kept row whose successor was removed is measured again
    /// against its new successor; every other step is kept as it was.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        let mut w = 0;
        // Original index of the last kept row.
        let mut last: Option<usize> = None;
        for (r, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            self.x[w] = self.x[r];
            self.y[w] = self.y[r];
            self.t_secs[w] = self.t_secs[r];
            self.speed_kmh[w] = self.speed_kmh[r];
            if let Some(prev) = last {
                // Writes trail reads: `w - 1 <= prev`.
                self.step_m[w - 1] =
                    if r == prev + 1 { self.step_m[prev] } else { self.dist(w - 1, w) };
            }
            last = Some(r);
            w += 1;
        }
        self.x.truncate(w);
        self.y.truncate(w);
        self.t_secs.truncate(w);
        self.speed_kmh.truncate(w);
        self.step_m.truncate(w.saturating_sub(1));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the buffer holds no points.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Euclidean distance between rows `i` and `j`, metres. Uses `hypot`
    /// to match `Point::distance` bit-for-bit, so columnar reimplementations
    /// of point-slice code stay exactly equal to their references.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        (self.x[j] - self.x[i]).hypot(self.y[j] - self.y[i])
    }

    /// [`dist`](Self::dist) from an `anchor` row to a later row `j`; the
    /// consecutive case reads the step column instead of measuring again.
    #[inline]
    pub fn dist_from(&self, anchor: usize, j: usize) -> f64 {
        if j == anchor + 1 {
            self.step_m[anchor]
        } else {
            self.dist(anchor, j)
        }
    }

    /// Seconds elapsed from row `i` to row `j` (negative if out of order).
    #[inline]
    pub fn dt_s(&self, i: usize, j: usize) -> i64 {
        self.t_secs[j] - self.t_secs[i]
    }

    /// Polyline length over the consecutive points of `range`, metres.
    pub fn length_m(&self, range: Range<usize>) -> f64 {
        if range.len() < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for &step in &self.step_m[range.start..range.end - 1] {
            sum += step;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;

    use crate::model::{PointTruth, TaxiId, TripId};

    fn pt(t: i64, x: f64, y: f64, v: f64) -> RoutePoint {
        RoutePoint {
            point_id: t as u64,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, y),
            timestamp: Timestamp::from_secs(t),
            speed_kmh: v,
            heading_deg: 0.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: t as u32, element: None },
        }
    }

    #[test]
    fn gathers_hot_fields() {
        let pts = vec![pt(0, 0.0, 0.0, 10.0), pt(10, 3.0, 4.0, 20.0)];
        let cols = TraceColumns::from_points(&pts);
        assert_eq!(cols.len(), 2);
        assert!(!cols.is_empty());
        assert_eq!(cols.x, vec![0.0, 3.0]);
        assert_eq!(cols.y, vec![0.0, 4.0]);
        assert_eq!(cols.t_secs, vec![0, 10]);
        assert_eq!(cols.speed_kmh, vec![10.0, 20.0]);
        assert_eq!(cols.dist(0, 1), 5.0);
        assert_eq!(cols.step_m, vec![5.0]);
        assert_eq!(cols.dist_from(0, 1), 5.0);
        assert_eq!(cols.dt_s(0, 1), 10);
    }

    #[test]
    fn length_matches_pairwise_distances() {
        let pts: Vec<RoutePoint> =
            (0..10).map(|i| pt(i as i64, i as f64 * 50.0, 0.0, 0.0)).collect();
        let cols = TraceColumns::from_points(&pts);
        assert_eq!(cols.length_m(0..10), 450.0);
        assert_eq!(cols.length_m(2..5), 100.0);
        assert_eq!(cols.length_m(3..4), 0.0);
        assert_eq!(cols.length_m(0..0), 0.0);
        let empty = TraceColumns::from_points(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.length_m(0..0), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;

    use crate::model::{PointTruth, TaxiId, TripId};

    fn mk(i: usize, x: f64, y: f64) -> RoutePoint {
        RoutePoint {
            point_id: i as u64,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, y),
            timestamp: Timestamp::from_secs(i as i64 / 2),
            speed_kmh: i as f64,
            heading_deg: 0.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: i as u32, element: None },
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    proptest! {
        /// Dropping rows from a gathered buffer leaves exactly the buffer
        /// gathered from the kept points, steps included, bit for bit.
        #[test]
        fn retain_rows_equals_gathering_the_kept_points(
            rows in proptest::collection::vec(
                (0u8..3, -500f64..500.0, -500f64..500.0, proptest::bool::ANY),
                0..40,
            )
        ) {
            let mut pts: Vec<RoutePoint> = Vec::new();
            for (i, &(kind, x, y, _)) in rows.iter().enumerate() {
                // Kind 0 repeats the previous position: a zero-length pair.
                let pos = match pts.last() {
                    Some(prev) if kind == 0 => (prev.pos.x, prev.pos.y),
                    _ => (x, y),
                };
                pts.push(mk(i, pos.0, pos.1));
            }
            let keep: Vec<bool> = rows.iter().map(|r| r.3).collect();
            let kept: Vec<RoutePoint> =
                pts.iter().zip(&keep).filter(|(_, &k)| k).map(|(p, _)| *p).collect();
            let mut cols = TraceColumns::from_points(&pts);
            cols.retain_rows(&keep);
            let want = TraceColumns::from_points(&kept);
            prop_assert_eq!(bits(&cols.x), bits(&want.x));
            prop_assert_eq!(bits(&cols.y), bits(&want.y));
            prop_assert_eq!(&cols.t_secs, &want.t_secs);
            prop_assert_eq!(bits(&cols.speed_kmh), bits(&want.speed_kmh));
            prop_assert_eq!(bits(&cols.step_m), bits(&want.step_m));
        }
    }
}
