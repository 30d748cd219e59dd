//! Adversarial robustness properties for the cleaning pipeline: for *any*
//! corruption the transmission model can apply — including configurations
//! far nastier than the calibrated defaults — `clean_session` and
//! `validate_segments` must neither panic nor emit non-finite or
//! impossible statistics. This is the record-level half of the fault
//! model: whatever arrives, cleaning's answer is a well-formed (possibly
//! empty) set of segments, never a poisoned one.

use proptest::prelude::*;
use taxitrace_cleaning::{
    clean_checked, clean_session, segment_anomaly, validate_segments, AnomalyConfig,
    AnomalyKind, CleaningConfig,
};
use taxitrace_geo::{GeoPoint, Point};
use taxitrace_roadnet::NodeId;
use taxitrace_timebase::Timestamp;
use taxitrace_traces::corruption::corrupt_session;
use taxitrace_traces::{
    CorruptionConfig, CustomerTripTruth, PointTruth, RawTrip, Rng, TaxiId, TripId,
};

/// A synthetic drive in true measurement order: `n` points along a bent
/// path with stop-and-go speeds, sampled every `step_s` seconds.
fn base_points(n: usize, step_s: i64, speed_kmh: f64) -> Vec<taxitrace_traces::RoutePoint> {
    (0..n)
        .map(|i| {
            let along = i as f64 * speed_kmh / 3.6 * step_s as f64;
            // A bend plus a periodic full stop (speed 0 every 11th point)
            // so segmentation's stop rules have real material to cut on.
            let speed = if i % 11 == 0 { 0.0 } else { speed_kmh };
            taxitrace_traces::RoutePoint {
                point_id: i as u64,
                trip_id: TripId(1),
                taxi: TaxiId(1),
                geo: GeoPoint::new(25.0, 65.0),
                pos: Point::new(along, (along * 0.35).sin() * 180.0),
                timestamp: Timestamp::from_secs(i as i64 * step_s),
                speed_kmh: speed,
                heading_deg: 90.0,
                fuel_ml: i as f64 * 3.0,
                truth: PointTruth { seq: i as u32, element: None },
            }
        })
        .collect()
}

fn session_from(points: Vec<taxitrace_traces::RoutePoint>, n: usize) -> RawTrip {
    let start_time = points.iter().map(|p| p.timestamp).min().unwrap();
    let end_time = points.iter().map(|p| p.timestamp).max().unwrap();
    RawTrip {
        id: TripId(1),
        taxi: TaxiId(1),
        start_time,
        end_time,
        points,
        total_time: end_time - start_time,
        total_distance_m: 1_000.0,
        total_fuel_ml: 500.0,
        truth_trips: vec![CustomerTripTruth {
            start_seq: 0,
            end_seq: (n - 1) as u32,
            origin: NodeId(0),
            destination: NodeId(0),
            elements: Vec::new(),
            od_pair: None,
        }],
    }
}

/// Thresholds low enough that ordinary driving trips every check.
fn hair_trigger() -> AnomalyConfig {
    AnomalyConfig {
        max_implied_speed_kmh: 60.0,
        min_jump_m: 100.0,
        skew_run: 2,
        skew_min_travel_m: 1.0,
        max_gap_s: 20,
        dropout_min_travel_m: 50.0,
        stuck_run: 3,
        stuck_radius_m: 5.0,
        stuck_min_speed_kmh: 1.0,
    }
}

/// Pair checks off, run checks on a hair trigger: reaches the run scans.
fn runs_only() -> AnomalyConfig {
    AnomalyConfig {
        min_jump_m: f64::INFINITY,
        max_gap_s: i64::MAX,
        ..hair_trigger()
    }
}

/// Every hand-built anomaly case of the detector's unit tests, checked
/// through the pipeline: the columnar scan names the same class and detail
/// as the point-slice reference on each kept segment.
#[test]
fn columnar_scan_matches_reference_on_planted_faults() {
    let drive = |n: usize| base_points(n, 10, 36.0);
    let mut cases: Vec<(Vec<taxitrace_traces::RoutePoint>, AnomalyKind)> = Vec::new();
    // Teleport 5 km mid-drive.
    let mut jump = drive(40);
    for p in &mut jump[20..] {
        p.pos = Point::new(p.pos.x + 5_000.0, p.pos.y);
    }
    cases.push((jump, AnomalyKind::PositionJump));
    // 80 points flattened onto one timestamp across 8 km.
    let mut skew = drive(120);
    for (k, p) in skew[20..100].iter_mut().enumerate() {
        p.timestamp = Timestamp::from_secs(200);
        p.pos = Point::new(p.pos.x + k as f64 * 100.0, p.pos.y);
    }
    for p in &mut skew[100..] {
        p.pos = Point::new(p.pos.x + 8_000.0, p.pos.y);
    }
    cases.push((skew, AnomalyKind::ClockSkew));
    // A 1200 s silence across 4 km.
    let mut dropout = drive(40);
    for p in &mut dropout[20..] {
        p.timestamp = Timestamp::from_secs(p.timestamp.secs() + 1_200);
        p.pos = Point::new(p.pos.x + 4_000.0, p.pos.y);
    }
    cases.push((dropout, AnomalyKind::Dropout));
    // 12 reports frozen in place (110 s, under rule 1's window) at 36 km/h.
    let mut stuck = drive(40);
    let frozen = stuck[20].pos;
    for p in &mut stuck[20..32] {
        p.pos = frozen;
    }
    for p in &mut stuck[32..] {
        p.pos = Point::new(p.pos.x - 1_100.0, p.pos.y);
    }
    cases.push((stuck, AnomalyKind::StuckSensor));
    for (points, kind) in cases {
        let n = points.len();
        let session = session_from(points, n);
        let cleaned = clean_session(&session, &CleaningConfig::default());
        let anomaly = AnomalyConfig::default();
        let reference = cleaned.segments.iter().enumerate().find_map(|(i, segment)| {
            let (kind, detail) = segment_anomaly(&segment.points, &anomaly)?;
            Some((kind, format!("segment {i}: {detail}")))
        });
        let found = clean_checked(&session, &CleaningConfig::default(), &anomaly)
            .expect_err("a planted fault is caught");
        assert_eq!(found.0, kind, "{found:?}");
        assert_eq!(Some(found), reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any corruption of any plausible drive cleans to finite, coherent
    /// output, and the validator's counts stay internally consistent.
    #[test]
    fn cleaning_survives_arbitrary_corruption(
        seed in 0u64..1_000,
        n in 8usize..180,
        step_s in 1i64..40,
        speed_kmh in 0.5f64..90.0,
        p_reorder in 0.0f64..1.0,
        p_ts_glitch in 0.0f64..1.0,
        burst_min in 1usize..12,
        burst_extra in 0usize..14,
        glitch_points in 1usize..10,
        glitch_max_s in 1i64..600,
        p_duplicate in 0.0f64..0.5,
    ) {
        let corruption = CorruptionConfig {
            p_reorder,
            p_ts_glitch,
            burst_min,
            burst_max: burst_min + burst_extra,
            glitch_points,
            glitch_max_s,
            p_duplicate,
        };
        let mut rng = Rng::new(seed);
        let (points, _applied) =
            corrupt_session(&corruption, &mut rng, base_points(n, step_s, speed_kmh));
        let session = session_from(points, n);

        let cleaned = clean_session(&session, &CleaningConfig::default());

        // Stats are counts of real events: bounded by the input (which may
        // exceed `n` — corruption injects duplicate uploads).
        prop_assert_eq!(cleaned.stats.raw_points, session.points.len());
        let kept: usize = cleaned.segments.iter().map(|s| s.points.len()).sum();
        prop_assert!(kept + cleaned.stats.duplicates_removed <= cleaned.stats.raw_points);

        for segment in &cleaned.segments {
            prop_assert!(!segment.points.is_empty());
            prop_assert!(segment.length_m().is_finite());
            prop_assert!(segment.length_m() >= 0.0);
            for w in segment.points.windows(2) {
                // Order repair guarantees monotone time inside a segment.
                prop_assert!(w[0].timestamp <= w[1].timestamp);
            }
            for p in &segment.points {
                prop_assert!(p.pos.x.is_finite() && p.pos.y.is_finite());
                prop_assert!(p.speed_kmh.is_finite() && p.speed_kmh >= 0.0);
            }
        }

        // The columnar anomaly scan reaches the verdict of the point-slice
        // reference on the kept segments, under the calibrated thresholds
        // and under hair-trigger ones that make every check fire.
        for anomaly in [AnomalyConfig::default(), hair_trigger(), runs_only()] {
            let reference = cleaned.segments.iter().enumerate().find_map(|(i, segment)| {
                let (kind, detail) = segment_anomaly(&segment.points, &anomaly)?;
                Some((kind, format!("segment {i}: {detail}")))
            });
            match clean_checked(&session, &CleaningConfig::default(), &anomaly) {
                Ok(checked) => {
                    prop_assert_eq!(reference, None);
                    prop_assert_eq!(&checked.segments, &cleaned.segments);
                    prop_assert_eq!(checked.stats, cleaned.stats);
                }
                Err(found) => prop_assert_eq!(Some(found), reference),
            }
        }

        let v = validate_segments(&session, &cleaned, 0.7);
        prop_assert_eq!(v.truth_legs, 1);
        prop_assert!(v.recovered_legs <= v.truth_legs);
        prop_assert_eq!(v.segments, cleaned.segments.len());
        prop_assert!(v.matched_segments <= v.segments);
        prop_assert!(v.recall().is_finite() && (0.0..=1.0).contains(&v.recall()));
    }
}
