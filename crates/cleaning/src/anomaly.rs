//! Post-cleaning invariant checks backing the pipeline's record-level
//! quarantine (the paper's §IV-B raw-data error classes).
//!
//! Cleaning repairs what it can: order repair undoes transmission
//! reordering and clamps glitched clocks, segmentation cuts out stops and
//! silent gaps, filters drop degenerate segments. What remains *should*
//! be physically plausible driving. These detectors check exactly that on
//! the cleaned output, with thresholds chosen so far beyond anything the
//! repaired simulator output produces that a firing detector means the
//! session carries damage cleaning cannot explain — the record belongs in
//! quarantine, not in the study.
//!
//! The taxonomy mirrors the raw-data error classes the paper's cleaning
//! stage is built around:
//!
//! * **position jump** — a consecutive pair teleports: large displacement
//!   at an impossible implied speed;
//! * **clock skew** — a long run of points sharing one timestamp while
//!   the vehicle covers real distance (the clamp signature the §IV-B
//!   monotonic-increase alignment leaves behind a large backwards jump);
//! * **dropout** — a long silent gap *inside* a segment with substantial
//!   movement (Table 2 rules 2/4 split silent gaps with little movement;
//!   a far-moving silence survives them and is unaccounted driving);
//! * **stuck sensor** — a long run frozen at one position while the unit
//!   keeps reporting driving speeds.

use std::ops::Range;

use serde::{Deserialize, Serialize};
use taxitrace_traces::{RoutePoint, TraceColumns};

/// The §IV-B error class a cleaned session was quarantined for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Teleporting displacement at an impossible implied speed.
    PositionJump,
    /// Flattened clock: many points on one timestamp while moving.
    ClockSkew,
    /// Long in-segment silence with substantial movement.
    Dropout,
    /// Frozen position with driving-range reported speeds.
    StuckSensor,
}

impl AnomalyKind {
    /// Stable lowercase label (used in metrics names and ledgers).
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::PositionJump => "position_jump",
            AnomalyKind::ClockSkew => "clock_skew",
            AnomalyKind::Dropout => "dropout",
            AnomalyKind::StuckSensor => "stuck_sensor",
        }
    }
}

/// Detection thresholds.
///
/// Every default is physically extreme on purpose: repaired simulator
/// output (including the default corruption model's reorders, clock
/// glitches and duplicates) stays far below all of them, so with no chaos
/// plan the detectors are inert and the pipeline's output is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalyConfig {
    /// Position jump: implied speed above this (km/h)…
    pub max_implied_speed_kmh: f64,
    /// …combined with a displacement above this (metres).
    pub min_jump_m: f64,
    /// Clock skew: at least this many consecutive points on one timestamp…
    pub skew_run: usize,
    /// …while covering at least this much path (metres).
    pub skew_min_travel_m: f64,
    /// Dropout: an in-segment gap longer than this (seconds)…
    pub max_gap_s: i64,
    /// …across which the vehicle moved at least this far (metres).
    pub dropout_min_travel_m: f64,
    /// Stuck sensor: at least this many consecutive points…
    pub stuck_run: usize,
    /// …within this radius of the run start (metres)…
    pub stuck_radius_m: f64,
    /// …with mean reported speed above this (km/h).
    pub stuck_min_speed_kmh: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            max_implied_speed_kmh: 400.0,
            min_jump_m: 2_500.0,
            skew_run: 64,
            skew_min_travel_m: 4_000.0,
            max_gap_s: 900,
            dropout_min_travel_m: 3_000.0,
            stuck_run: 10,
            stuck_radius_m: 0.5,
            stuck_min_speed_kmh: 5.0,
        }
    }
}

/// Scans a session's kept segments, given as ranges of its columns, for
/// the first invariant violation in deterministic order (segments in
/// order; within a segment, pair checks before run checks). Returns the
/// error class and a human-readable detail, or `None` for a plausible
/// session.
pub(crate) fn kept_anomaly(
    cols: &TraceColumns,
    kept: &[Range<usize>],
    config: &AnomalyConfig,
) -> Option<(AnomalyKind, String)> {
    kept.iter().enumerate().find_map(|(i, range)| {
        let (kind, detail) = range_anomaly(cols, range.clone(), config)?;
        Some((kind, format!("segment {i}: {detail}")))
    })
}

/// The checks of [`segment_anomaly`] on the rows `range` of a session's
/// columns. Consecutive distances come from the step column, which holds
/// the same bits `Point::distance` computes.
fn range_anomaly(
    cols: &TraceColumns,
    range: Range<usize>,
    config: &AnomalyConfig,
) -> Option<(AnomalyKind, String)> {
    for i in range.start..range.end.saturating_sub(1) {
        let dist_m = cols.step_m[i];
        let dt_s = cols.dt_s(i, i + 1);
        if let Some(found) = pair_anomaly(dist_m, dt_s, config) {
            return Some(found);
        }
    }

    // Run scans: maximal runs of equal timestamps / frozen positions.
    let mut start = range.start;
    while start < range.end {
        let mut end = start + 1;
        while end < range.end && cols.t_secs[end] == cols.t_secs[start] {
            end += 1;
        }
        if end - start >= config.skew_run {
            let travel: f64 = cols.step_m[start..end - 1].iter().sum();
            if let Some(found) = skew_anomaly(end - start, travel, config) {
                return Some(found);
            }
        }
        start = end;
    }

    let mut start = range.start;
    while start < range.end {
        let mut end = start + 1;
        while end < range.end && cols.dist_from(start, end) <= config.stuck_radius_m {
            end += 1;
        }
        if end - start >= config.stuck_run {
            let speed_sum: f64 = cols.speed_kmh[start..end].iter().sum();
            if let Some(found) = stuck_anomaly(end - start, speed_sum, config) {
                return Some(found);
            }
        }
        start = end;
    }
    None
}

/// The post-cleaning checks on one segment's point sequence: the
/// point-slice reference the columnar scan of [`clean_checked`] must equal.
///
/// [`clean_checked`]: crate::clean_checked
pub fn segment_anomaly(
    points: &[RoutePoint],
    config: &AnomalyConfig,
) -> Option<(AnomalyKind, String)> {
    for w in points.windows(2) {
        let dist_m = w[0].pos.distance(w[1].pos);
        let dt_s = (w[1].timestamp - w[0].timestamp).secs();
        if let Some(found) = pair_anomaly(dist_m, dt_s, config) {
            return Some(found);
        }
    }

    // Run scans: maximal runs of equal timestamps / frozen positions.
    let mut start = 0;
    while start < points.len() {
        let mut end = start + 1;
        while end < points.len() && points[end].timestamp == points[start].timestamp {
            end += 1;
        }
        let run = &points[start..end];
        if run.len() >= config.skew_run {
            let travel: f64 = run.windows(2).map(|w| w[0].pos.distance(w[1].pos)).sum();
            if let Some(found) = skew_anomaly(run.len(), travel, config) {
                return Some(found);
            }
        }
        start = end;
    }

    let mut start = 0;
    while start < points.len() {
        let anchor = points[start].pos;
        let mut end = start + 1;
        while end < points.len() && points[end].pos.distance(anchor) <= config.stuck_radius_m
        {
            end += 1;
        }
        let run = &points[start..end];
        if run.len() >= config.stuck_run {
            let speed_sum = run.iter().map(|p| p.speed_kmh).sum::<f64>();
            if let Some(found) = stuck_anomaly(run.len(), speed_sum, config) {
                return Some(found);
            }
        }
        start = end;
    }
    None
}

/// The position-jump and dropout verdicts on one consecutive pair.
fn pair_anomaly(dist_m: f64, dt_s: i64, config: &AnomalyConfig) -> Option<(AnomalyKind, String)> {
    if dist_m >= config.min_jump_m {
        // dt == 0 after clamping means infinite implied speed.
        let implied_kmh = if dt_s <= 0 { f64::INFINITY } else { dist_m / dt_s as f64 * 3.6 };
        if implied_kmh > config.max_implied_speed_kmh {
            return Some((
                AnomalyKind::PositionJump,
                format!("{dist_m:.0} m in {dt_s} s (implied {implied_kmh:.0} km/h)"),
            ));
        }
    }
    if dt_s > config.max_gap_s && dist_m >= config.dropout_min_travel_m {
        return Some((
            AnomalyKind::Dropout,
            format!("{dt_s} s silent while moving {dist_m:.0} m"),
        ));
    }
    None
}

/// The clock-skew verdict on a run of `len` points sharing one timestamp
/// across `travel` metres.
fn skew_anomaly(len: usize, travel: f64, config: &AnomalyConfig) -> Option<(AnomalyKind, String)> {
    (travel >= config.skew_min_travel_m).then(|| {
        (AnomalyKind::ClockSkew, format!("{len} points share one timestamp across {travel:.0} m"))
    })
}

/// The stuck-sensor verdict on a run of `len` frozen points whose
/// reported speeds sum to `speed_sum` km/h.
fn stuck_anomaly(len: usize, speed_sum: f64, config: &AnomalyConfig) -> Option<(AnomalyKind, String)> {
    let mean_speed = speed_sum / len as f64;
    (mean_speed > config.stuck_min_speed_kmh).then(|| {
        (
            AnomalyKind::StuckSensor,
            format!("{len} points frozen in place at mean {mean_speed:.0} km/h"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn pt(i: usize, x: f64, t: i64, speed: f64) -> RoutePoint {
        RoutePoint {
            point_id: i as u64,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, 0.0),
            timestamp: Timestamp::from_secs(t),
            speed_kmh: speed,
            heading_deg: 90.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: i as u32, element: None },
        }
    }

    fn cfg() -> AnomalyConfig {
        AnomalyConfig::default()
    }

    #[test]
    fn plausible_driving_is_clean() {
        // 40 points, 100 m / 10 s apart: 36 km/h.
        let points: Vec<_> =
            (0..40).map(|i| pt(i, i as f64 * 100.0, i as i64 * 10, 36.0)).collect();
        assert_eq!(segment_anomaly(&points, &cfg()), None);
    }

    #[test]
    fn teleport_is_a_position_jump() {
        let mut points: Vec<_> =
            (0..10).map(|i| pt(i, i as f64 * 100.0, i as i64 * 10, 36.0)).collect();
        for p in &mut points[5..] {
            p.pos = Point::new(p.pos.x + 5_000.0, 0.0);
        }
        let (kind, _) = segment_anomaly(&points, &cfg()).unwrap();
        assert_eq!(kind, AnomalyKind::PositionJump);
    }

    #[test]
    fn flattened_clock_is_skew() {
        // 80 points frozen on one timestamp while covering 7.9 km.
        let points: Vec<_> = (0..80).map(|i| pt(i, i as f64 * 100.0, 50, 36.0)).collect();
        let (kind, _) = segment_anomaly(&points, &cfg()).unwrap();
        assert_eq!(kind, AnomalyKind::ClockSkew);
    }

    #[test]
    fn long_moving_silence_is_dropout() {
        let mut points: Vec<_> =
            (0..10).map(|i| pt(i, i as f64 * 100.0, i as i64 * 10, 36.0)).collect();
        // 1200 s silent gap across 4 km between points 4 and 5.
        for (j, p) in points.iter_mut().enumerate().skip(5) {
            p.timestamp = Timestamp::from_secs(40 + 1_210 + (j as i64 - 5) * 10);
            p.pos = Point::new(4_400.0 + (j as f64 - 5.0) * 100.0, 0.0);
        }
        let (kind, _) = segment_anomaly(&points, &cfg()).unwrap();
        assert_eq!(kind, AnomalyKind::Dropout);
    }

    #[test]
    fn frozen_position_at_speed_is_stuck_sensor() {
        let points: Vec<_> = (0..10).map(|i| pt(i, 500.0, i as i64 * 10, 45.0)).collect();
        let (kind, _) = segment_anomaly(&points, &cfg()).unwrap();
        assert_eq!(kind, AnomalyKind::StuckSensor);
    }

    #[test]
    fn frozen_position_at_rest_is_fine() {
        // A parked car sending heartbeats is not a sensor fault.
        let points: Vec<_> = (0..10).map(|i| pt(i, 500.0, i as i64 * 10, 0.0)).collect();
        assert_eq!(segment_anomaly(&points, &cfg()), None);
    }
}
