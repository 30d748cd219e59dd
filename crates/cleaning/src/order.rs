use taxitrace_timebase::Timestamp;
use taxitrace_traces::{RoutePoint, TraceColumns};

/// Which candidate ordering the §IV-B repair selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenOrder {
    /// Server arrival ids were the true order (timestamps had glitched).
    ById,
    /// Device timestamps were the true order (packets arrived late).
    ByTimestamp,
}

/// Diagnostics of one order repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderRepairReport {
    pub chosen: ChosenOrder,
    /// Total trip distance when points are id-ordered, metres.
    pub id_order_length_m: f64,
    /// Total trip distance when points are timestamp-ordered, metres.
    pub ts_order_length_m: f64,
    /// Whether the two orders disagreed at all.
    pub orders_differed: bool,
}

/// §IV-B order repair.
///
/// "We sort the route points into two sequences: by their id and by their
/// timestamp. Then, the overall distance of the trip is calculated for both
/// sequences. The one with the smaller length is judged as the right
/// sequence. Finally, all the corresponding properties are aligned with
/// respect to the correct sequence to guarantee monotonic increase."
///
/// The returned points are in the chosen order with timestamps clamped to
/// be non-decreasing (the "monotonic increase" alignment: a glitched clock
/// reading is pulled up to its predecessor).
pub fn repair_order(points: &[RoutePoint]) -> (Vec<RoutePoint>, OrderRepairReport) {
    if let Some(report) = in_order_report(points) {
        return (points.to_vec(), report);
    }
    let (ordered, report, _) = repair_out_of_order(points);
    (ordered, report)
}

/// [`repair_order`] of a session that is not [`in_order`], also returning
/// the chosen order's columns. The timestamp order's path length is the
/// sum of its step column, so when that order wins no pair is measured
/// twice.
pub(crate) fn repair_out_of_order(
    points: &[RoutePoint],
) -> (Vec<RoutePoint>, OrderRepairReport, TraceColumns) {
    let mut by_id: Vec<RoutePoint> = points.to_vec();
    by_id.sort_by_key(|p| p.point_id);
    let mut by_ts: Vec<RoutePoint> = points.to_vec();
    // Stable sort; ties broken by id to stay deterministic.
    by_ts.sort_by_key(|p| (p.timestamp, p.point_id));

    let ts_cols = TraceColumns::from_points(&by_ts);
    let id_len = path_length(&by_id);
    let ts_len = ts_cols.step_m.iter().sum();
    let orders_differed = by_id
        .iter()
        .zip(by_ts.iter())
        .any(|(a, b)| a.point_id != b.point_id);

    // Smaller total distance wins; ties favour the timestamp order (the
    // common no-error case where both agree).
    let (mut chosen_points, chosen) = if id_len < ts_len {
        (by_id, ChosenOrder::ById)
    } else {
        (by_ts, ChosenOrder::ByTimestamp)
    };

    // Align properties: enforce monotonic timestamps. The timestamp order
    // is already monotonic, so only the id order can change here.
    let mut last = Timestamp::from_secs(i64::MIN);
    for p in &mut chosen_points {
        if p.timestamp < last {
            p.timestamp = last;
        }
        last = p.timestamp;
    }
    let cols = match chosen {
        ChosenOrder::ById => TraceColumns::from_points(&chosen_points),
        ChosenOrder::ByTimestamp => ts_cols,
    };

    (
        chosen_points,
        OrderRepairReport {
            chosen,
            id_order_length_m: id_len,
            ts_order_length_m: ts_len,
            orders_differed,
        },
        cols,
    )
}

impl OrderRepairReport {
    /// The report of a session that is already in order (see [`in_order`])
    /// and whose path is `path_length_m` long. Both stable sorts would be
    /// the identity, so both candidate orders are the input itself: the
    /// timestamp order wins the length tie and no timestamp needs clamping.
    pub(crate) fn in_order(path_length_m: f64) -> Self {
        OrderRepairReport {
            chosen: ChosenOrder::ByTimestamp,
            id_order_length_m: path_length_m,
            ts_order_length_m: path_length_m,
            orders_differed: false,
        }
    }
}

/// The repair report of a session that is already in order, or `None`.
fn in_order_report(points: &[RoutePoint]) -> Option<OrderRepairReport> {
    in_order(points).then(|| OrderRepairReport::in_order(path_length(points)))
}

/// Whether `point_id` and `(timestamp, point_id)` are both non-decreasing.
pub(crate) fn in_order(points: &[RoutePoint]) -> bool {
    points.windows(2).all(|w| {
        w[0].point_id <= w[1].point_id
            && (w[0].timestamp, w[0].point_id) <= (w[1].timestamp, w[1].point_id)
    })
}

/// Total polyline length of a point sequence, metres (planar frame).
fn path_length(points: &[RoutePoint]) -> f64 {
    points
        .windows(2)
        .map(|w| w[0].pos.distance(w[1].pos))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn pt(id: u64, t: i64, x: f64) -> RoutePoint {
        RoutePoint {
            point_id: id,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, 0.0),
            timestamp: Timestamp::from_secs(t),
            speed_kmh: 30.0,
            heading_deg: 90.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: id as u32, element: None },
        }
    }

    #[test]
    fn agreeing_orders_pass_through() {
        let pts = vec![pt(0, 0, 0.0), pt(1, 10, 100.0), pt(2, 20, 200.0)];
        let (out, report) = repair_order(&pts);
        assert!(!report.orders_differed);
        assert_eq!(report.chosen, ChosenOrder::ByTimestamp);
        assert_eq!(out.iter().map(|p| p.point_id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn latency_reorder_fixed_by_timestamp_order() {
        // True movement 0 → 100 → 200 → 300; the middle two arrived swapped,
        // so ids are 0,1,2,3 but positions zig-zag in id order.
        let pts = vec![
            pt(0, 0, 0.0),
            pt(1, 20, 200.0), // arrived early (late point)
            pt(2, 10, 100.0),
            pt(3, 30, 300.0),
        ];
        let (out, report) = repair_order(&pts);
        assert!(report.orders_differed);
        assert_eq!(report.chosen, ChosenOrder::ByTimestamp);
        assert!(report.ts_order_length_m < report.id_order_length_m);
        let xs: Vec<f64> = out.iter().map(|p| p.pos.x).collect();
        assert_eq!(xs, vec![0.0, 100.0, 200.0, 300.0]);
    }

    #[test]
    fn clock_glitch_fixed_by_id_order() {
        // Ids are the true order; one timestamp glitched backwards.
        let pts = vec![
            pt(0, 0, 0.0),
            pt(1, 10, 100.0),
            pt(2, 3, 200.0), // clock glitch: should be ~20
            pt(3, 30, 300.0),
        ];
        let (out, report) = repair_order(&pts);
        assert!(report.orders_differed);
        assert_eq!(report.chosen, ChosenOrder::ById);
        // Timestamps monotonic after alignment.
        for w in out.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
        let xs: Vec<f64> = out.iter().map(|p| p.pos.x).collect();
        assert_eq!(xs, vec![0.0, 100.0, 200.0, 300.0]);
    }

    #[test]
    fn in_order_input_reports_like_the_sorting_path() {
        // Equal timestamps and equal ids both count as in order.
        let pts = vec![pt(0, 0, 0.0), pt(1, 0, 30.0), pt(1, 10, 100.0), pt(2, 20, 250.0)];
        let report = in_order_report(&pts).expect("in order");
        assert_eq!(report.chosen, ChosenOrder::ByTimestamp);
        assert!(!report.orders_differed);
        assert_eq!(report.id_order_length_m, 250.0);
        assert_eq!(report.ts_order_length_m, 250.0);
        assert_eq!(repair_order(&pts), (pts.clone(), report));
        // An id step back or a timestamp step back is out of order.
        assert!(in_order_report(&[pt(1, 0, 0.0), pt(0, 10, 1.0)]).is_none());
        assert!(in_order_report(&[pt(0, 10, 0.0), pt(1, 0, 1.0)]).is_none());
    }

    #[test]
    fn empty_and_single_point() {
        let (out, r) = repair_order(&[]);
        assert!(out.is_empty());
        assert_eq!(r.id_order_length_m, 0.0);
        let one = vec![pt(0, 5, 1.0)];
        let (out, _) = repair_order(&one);
        assert_eq!(out.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn mk(id: u64, t: i64, x: f64, y: f64) -> RoutePoint {
        RoutePoint {
            point_id: id,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, y),
            timestamp: Timestamp::from_secs(t),
            speed_kmh: 0.0,
            heading_deg: 0.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: id as u32, element: None },
        }
    }

    proptest! {
        /// Repair is idempotent: repairing repaired output changes nothing.
        #[test]
        fn idempotent(
            coords in proptest::collection::vec((0i64..10_000, -1e3f64..1e3, -1e3f64..1e3), 2..30)
        ) {
            let pts: Vec<RoutePoint> = coords
                .iter()
                .enumerate()
                .map(|(i, &(t, x, y))| mk(i as u64, t, x, y))
                .collect();
            let (once, _) = repair_order(&pts);
            let (twice, _) = repair_order(&once);
            let a: Vec<u64> = once.iter().map(|p| p.point_id).collect();
            let b: Vec<u64> = twice.iter().map(|p| p.point_id).collect();
            prop_assert_eq!(a, b);
        }

        /// Output timestamps are always monotonic and no point is lost.
        #[test]
        fn monotone_and_lossless(
            coords in proptest::collection::vec((0i64..10_000, -1e3f64..1e3), 0..30)
        ) {
            let pts: Vec<RoutePoint> = coords
                .iter()
                .enumerate()
                .map(|(i, &(t, x))| mk(i as u64, t, x, 0.0))
                .collect();
            let (out, _) = repair_order(&pts);
            prop_assert_eq!(out.len(), pts.len());
            for w in out.windows(2) {
                prop_assert!(w[0].timestamp <= w[1].timestamp);
            }
            let mut ids: Vec<u64> = out.iter().map(|p| p.point_id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..pts.len() as u64).collect::<Vec<_>>());
        }

        /// The chosen order never has a longer path than the rejected one.
        #[test]
        fn chooses_shorter(
            coords in proptest::collection::vec((0i64..10_000, -1e3f64..1e3), 2..30)
        ) {
            let pts: Vec<RoutePoint> = coords
                .iter()
                .enumerate()
                .map(|(i, &(t, x))| mk(i as u64, t, x, 0.0))
                .collect();
            let (_, r) = repair_order(&pts);
            match r.chosen {
                ChosenOrder::ById => prop_assert!(r.id_order_length_m <= r.ts_order_length_m),
                ChosenOrder::ByTimestamp => {
                    prop_assert!(r.ts_order_length_m <= r.id_order_length_m)
                }
            }
        }
    }
}
