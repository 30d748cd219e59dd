use std::ops::Range;

use serde::{Deserialize, Serialize};
use taxitrace_traces::{RoutePoint, TraceColumns};

/// Parameters of the paper's Table 2 time-based segmentation rules.
///
/// | rule | paper wording | implementation |
/// |------|---------------|----------------|
/// | 1 | "distance between route points does not change within three minutes" | a run of consecutive points staying within `freeze_radius_m` of the run start for ≥ `rule1_window_s` |
/// | 2 | "distance change less than three km within time more than seven minutes" | a silent gap between consecutive points with `dt > rule2_gap_s` and movement `< rule24_distance_m` |
/// | 3 | "moved with speed less than 0.002 m/s" | a consecutive pair with pairwise speed `< rule3_speed_ms`; guarded by `dt > rule3_min_gap_s` so ordinary traffic-light waits (≤ 200 s per the paper's own rationale) never split a trip |
/// | 4 | "moved less than 3 km in more than 15 minutes with speed > 0.002 m/s" | a gap with `dt > rule4_gap_s`, movement `< rule24_distance_m`, pairwise speed above `rule3_speed_ms` |
/// | 5 | "trips longer than 40 km re-split with rule 1 at 1.5 minutes" | applied by the pipeline to oversized segments using `rule5_window_s` |
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentationConfig {
    /// Rule 1 window, seconds (3 minutes).
    pub rule1_window_s: i64,
    /// Position-freeze radius treated as "distance does not change", metres.
    pub freeze_radius_m: f64,
    /// Rule 2 silent-gap threshold, seconds (7 minutes).
    pub rule2_gap_s: i64,
    /// Rules 2 & 4 movement bound, metres (3 km).
    pub rule24_distance_m: f64,
    /// Rule 3 speed threshold, m/s (0.002).
    pub rule3_speed_ms: f64,
    /// Rule 3 guard: minimum gap before a crawl pair splits, seconds.
    /// The paper's rationale: worst-case traffic-light waits are 200 s.
    pub rule3_min_gap_s: i64,
    /// Rule 4 gap threshold, seconds (15 minutes).
    pub rule4_gap_s: i64,
    /// Rule 5 re-split window, seconds (1.5 minutes).
    pub rule5_window_s: i64,
    /// Rule 5 trigger length, metres (40 km).
    pub rule5_trigger_m: f64,
}

impl Default for SegmentationConfig {
    fn default() -> Self {
        Self {
            rule1_window_s: 180,
            freeze_radius_m: 25.0,
            rule2_gap_s: 420,
            rule24_distance_m: 3_000.0,
            rule3_speed_ms: 0.002,
            rule3_min_gap_s: 200,
            rule4_gap_s: 900,
            rule5_window_s: 90,
            rule5_trigger_m: 40_000.0,
        }
    }
}

/// Which rules fired how often during one segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SegmentationReport {
    /// Fire counts for rules 1–5 (index 0 = rule 1).
    pub rule_fires: [usize; 5],
}

impl SegmentationReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &SegmentationReport) {
        for (a, b) in self.rule_fires.iter_mut().zip(other.rule_fires) {
            *a += b;
        }
    }
}

/// Splits an ordered session point stream into driven segments
/// (point-index ranges) using rules 1–4. Rule 5 is applied by the caller to
/// oversized segments via [`resplit_rule1`].
///
/// Returns `(segments, report)` where each segment is a `start..end` index
/// range (end exclusive) into `points`. Stop points themselves belong to no
/// segment.
pub fn segment_session(
    points: &[RoutePoint],
    config: &SegmentationConfig,
) -> (Vec<Range<usize>>, SegmentationReport) {
    segment_columns(&TraceColumns::from_points(points), config)
}

/// Column-buffer variant of [`segment_session`]: the same Table 2 rules over
/// a struct-of-arrays buffer, so the pair loop and rule-1 run scan stream
/// through contiguous coordinate/timestamp columns. Callers that already
/// built a [`TraceColumns`] (the cleaning pipeline builds one per session)
/// avoid re-gathering.
pub fn segment_columns(
    cols: &TraceColumns,
    config: &SegmentationConfig,
) -> (Vec<Range<usize>>, SegmentationReport) {
    let mut report = SegmentationReport::default();
    let n = cols.len();
    if n == 0 {
        return (Vec::new(), report);
    }
    // `stop_gap[i]` marks the gap between points i and i+1 as a stop.
    // Pair-level rules (4, 3, 2) run first so long silent gaps attribute
    // to the specific rule that describes them; the run-based rule 1 then
    // sweeps up heartbeat-sampled frozen dwells.
    let mut stop_gap = vec![false; n.saturating_sub(1)];

    for (i, gap) in stop_gap.iter_mut().enumerate() {
        let dt = cols.dt_s(i, i + 1);
        if dt <= 0 {
            continue;
        }
        let dd = cols.step_m[i];
        let speed = dd / dt as f64;
        // Rule 4 first (it is the most specific long-gap rule): very long
        // silence with some movement but under 3 km.
        if dt > config.rule4_gap_s
            && dd < config.rule24_distance_m
            && speed > config.rule3_speed_ms
            && !*gap
        {
            *gap = true;
            report.rule_fires[3] += 1;
        }
        // Rule 2: long silence, little movement.
        if dt > config.rule2_gap_s && dd < config.rule24_distance_m && !*gap {
            *gap = true;
            report.rule_fires[1] += 1;
        }
        // Rule 3: stationary crawl beyond the traffic-light guard.
        if dt > config.rule3_min_gap_s && speed < config.rule3_speed_ms && !*gap {
            *gap = true;
            report.rule_fires[2] += 1;
        }
    }

    mark_rule1_columns(cols, 0..n, config.rule1_window_s, config.freeze_radius_m, &mut stop_gap, || {
        report.rule_fires[0] += 1;
    });

    (ranges_from_stop_gaps(n, &stop_gap), report)
}

/// Rule 5: re-splits a single oversized segment with rule 1 at the shorter
/// window. Returns sub-ranges relative to `points` (which should be the
/// oversized segment's slice range offset by `base`).
pub fn resplit_rule1(
    points: &[RoutePoint],
    base: usize,
    config: &SegmentationConfig,
    report: &mut SegmentationReport,
) -> Vec<Range<usize>> {
    let cols = TraceColumns::from_points(points);
    resplit_columns(&cols, 0..cols.len(), config, report)
        .into_iter()
        .map(|r| r.start + base..r.end + base)
        .collect()
}

/// Column-buffer variant of [`resplit_rule1`]: re-splits the sub-range
/// `range` of a whole-session buffer, returning absolute (buffer-indexed)
/// sub-ranges. The pipeline calls this on the session columns it already
/// built, so rule 5 never re-gathers a slice.
pub fn resplit_columns(
    cols: &TraceColumns,
    range: Range<usize>,
    config: &SegmentationConfig,
    report: &mut SegmentationReport,
) -> Vec<Range<usize>> {
    let mut fires = 0usize;
    let mut stop_gap = vec![false; range.len().saturating_sub(1)];
    mark_rule1_columns(cols, range.clone(), config.rule5_window_s, config.freeze_radius_m, &mut stop_gap, || {
        fires += 1;
    });
    report.rule_fires[4] += fires;
    ranges_from_stop_gaps(range.len(), &stop_gap)
        .into_iter()
        .map(|r| r.start + range.start..r.end + range.start)
        .collect()
}

/// Rule 1 core over columns: find runs of points (within `range`) that stay
/// within `radius` of the run's first point for at least `window_s`, and
/// mark every gap inside the run. `stop_gap` is indexed relative to
/// `range.start` and must have `range.len() - 1` entries.
fn mark_rule1_columns(
    cols: &TraceColumns,
    range: Range<usize>,
    window_s: i64,
    radius: f64,
    stop_gap: &mut [bool],
    mut on_fire: impl FnMut(),
) {
    let lo = range.start;
    let hi = range.end;
    let mut i = lo;
    while i + 1 < hi {
        let mut j = i;
        // `dist_from` keeps the radius test bit-identical to the reference
        // implementation's `Point::distance`; the first probe reads the
        // step column.
        while j + 1 < hi && cols.dist_from(i, j + 1) <= radius {
            j += 1;
        }
        if j > i && cols.dt_s(i, j) >= window_s {
            // Only counts as a rule-1 fire when it marks something a
            // pair rule has not already claimed.
            if stop_gap[i - lo..j - lo].iter().any(|g| !*g) {
                on_fire();
            }
            for g in stop_gap.iter_mut().take(j - lo).skip(i - lo) {
                *g = true;
            }
        }
        i = j.max(i + 1);
    }
}

/// Converts stop-gap markers into driven point ranges. A point adjacent only
/// to stop gaps is excluded.
fn ranges_from_stop_gaps(n: usize, stop_gap: &[bool]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    // `stop_gap` has `n - 1` entries; the appended `true` closes the run
    // after the final point.
    for (i, &gap_after) in stop_gap.iter().chain(std::iter::once(&true)).enumerate().take(n) {
        match start {
            None => {
                if !gap_after {
                    start = Some(i);
                }
            }
            Some(s) => {
                if gap_after {
                    // Current point ends the run (it is included).
                    out.push(s..i + 1);
                    start = None;
                }
            }
        }
    }
    if let Some(s) = start {
        out.push(s..n);
    }
    out
}

/// The original array-of-structs segmentation, kept verbatim as the
/// reference implementation: the criterion A/B bench measures it against
/// [`segment_columns`], and a differential proptest pins both to identical
/// output. Not used by the production pipeline.
pub fn segment_session_reference(
    points: &[RoutePoint],
    config: &SegmentationConfig,
) -> (Vec<Range<usize>>, SegmentationReport) {
    let mut report = SegmentationReport::default();
    let n = points.len();
    if n == 0 {
        return (Vec::new(), report);
    }
    let mut stop_gap = vec![false; n.saturating_sub(1)];

    for i in 0..n.saturating_sub(1) {
        let dt = (points[i + 1].timestamp - points[i].timestamp).secs();
        let dd = points[i].pos.distance(points[i + 1].pos);
        if dt <= 0 {
            continue;
        }
        let speed = dd / dt as f64;
        if dt > config.rule4_gap_s
            && dd < config.rule24_distance_m
            && speed > config.rule3_speed_ms
            && !stop_gap[i]
        {
            stop_gap[i] = true;
            report.rule_fires[3] += 1;
        }
        if dt > config.rule2_gap_s && dd < config.rule24_distance_m && !stop_gap[i] {
            stop_gap[i] = true;
            report.rule_fires[1] += 1;
        }
        if dt > config.rule3_min_gap_s && speed < config.rule3_speed_ms && !stop_gap[i] {
            stop_gap[i] = true;
            report.rule_fires[2] += 1;
        }
    }

    mark_rule1_reference(points, config.rule1_window_s, config.freeze_radius_m, &mut stop_gap, || {
        report.rule_fires[0] += 1;
    });

    (ranges_from_stop_gaps(n, &stop_gap), report)
}

/// Rule 1 core of the reference implementation (struct-iterating).
fn mark_rule1_reference(
    points: &[RoutePoint],
    window_s: i64,
    radius: f64,
    stop_gap: &mut [bool],
    mut on_fire: impl FnMut(),
) {
    let n = points.len();
    let mut i = 0;
    while i + 1 < n {
        let anchor = points[i].pos;
        let mut j = i;
        while j + 1 < n && points[j + 1].pos.distance(anchor) <= radius {
            j += 1;
        }
        if j > i {
            let dur = (points[j].timestamp - points[i].timestamp).secs();
            if dur >= window_s {
                if stop_gap[i..j].iter().any(|g| !*g) {
                    on_fire();
                }
                for g in stop_gap.iter_mut().take(j).skip(i) {
                    *g = true;
                }
            }
        }
        i = j.max(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn pt(t: i64, x: f64) -> RoutePoint {
        RoutePoint {
            point_id: t as u64,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, 0.0),
            timestamp: Timestamp::from_secs(t),
            speed_kmh: 30.0,
            heading_deg: 90.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: t as u32, element: None },
        }
    }

    /// Drive, stop frozen for 10 minutes (heartbeats), drive again.
    #[test]
    fn rule1_splits_long_frozen_stop() {
        let mut pts = Vec::new();
        for k in 0..5 {
            pts.push(pt(k * 30, k as f64 * 200.0)); // driving east
        }
        // Frozen at x = 800 for 600 s, heartbeat every 70 s.
        for k in 0..9 {
            pts.push(pt(150 + k * 70, 800.0));
        }
        for k in 0..5 {
            pts.push(pt(150 + 8 * 70 + 30 + k * 30, 800.0 + (k + 1) as f64 * 200.0));
        }
        let (segs, report) = segment_session(&pts, &SegmentationConfig::default());
        assert_eq!(segs.len(), 2, "{segs:?}");
        assert!(report.rule_fires[0] >= 1, "rule 1 fired");
    }

    /// A 60 s traffic-light wait must NOT split the trip (paper rationale).
    #[test]
    fn short_light_wait_does_not_split() {
        let mut pts = Vec::new();
        for k in 0..4 {
            pts.push(pt(k * 20, k as f64 * 150.0));
        }
        // Stationary 60 s at x = 450 (two frozen points).
        pts.push(pt(80, 450.0));
        pts.push(pt(140, 450.0));
        for k in 0..4 {
            pts.push(pt(160 + k * 20, 450.0 + (k + 1) as f64 * 150.0));
        }
        let (segs, _) = segment_session(&pts, &SegmentationConfig::default());
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert_eq!(segs[0], 0..pts.len());
    }

    /// Device slept 10 minutes while parked: rule 2 splits at the gap.
    #[test]
    fn rule2_splits_silent_gap() {
        let mut pts = Vec::new();
        for k in 0..5 {
            pts.push(pt(k * 30, k as f64 * 200.0));
        }
        // Silence 600 s, car moved 80 m (repositioned in parking lot).
        pts.push(pt(120 + 600, 880.0));
        for k in 0..5 {
            pts.push(pt(120 + 600 + (k + 1) * 30, 880.0 + (k + 1) as f64 * 200.0));
        }
        let (segs, report) = segment_session(&pts, &SegmentationConfig::default());
        assert_eq!(segs.len(), 2, "{segs:?}");
        assert_eq!(report.rule_fires[1], 1, "rule 2 fired once");
    }

    /// Rule 3: frozen pair with a gap beyond the 200 s guard.
    #[test]
    fn rule3_splits_long_crawl_pair() {
        let pts = vec![
            pt(0, 0.0),
            pt(30, 300.0),
            pt(60, 600.0),
            // 240 s gap, zero movement (frozen fix), under rule-1 window?
            // 240 s ≥ 180 s would also fire rule 1 — use distinct anchor
            // movement of 30 m so rule 1's 25 m radius does not cover it.
            pt(300, 630.0),
            pt(330, 930.0),
            pt(360, 1230.0),
        ];
        let cfg = SegmentationConfig::default();
        let (segs, report) = segment_session(&pts, &cfg);
        // 30 m / 240 s = 0.125 m/s — above 0.002, so rule 3 must NOT fire.
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert_eq!(report.rule_fires[2], 0);

        // Now an exactly-frozen pair over 240 s: rule 3 fires.
        let pts2 = vec![
            pt(0, 0.0),
            pt(30, 300.0),
            pt(60, 600.0),
            pt(300, 600.0),
            pt(330, 900.0),
            pt(360, 1200.0),
        ];
        let (segs2, report2) = segment_session(&pts2, &cfg);
        assert_eq!(segs2.len(), 2, "{segs2:?}");
        assert!(report2.rule_fires[0] + report2.rule_fires[2] >= 1);
    }

    /// Rule 4: 20-minute silence with 2 km creep splits.
    #[test]
    fn rule4_splits_slow_creep_gap() {
        let mut pts = Vec::new();
        for k in 0..5 {
            pts.push(pt(k * 30, k as f64 * 200.0));
        }
        pts.push(pt(120 + 1200, 800.0 + 2000.0)); // 2 km over 20 min
        for k in 0..5 {
            pts.push(pt(120 + 1200 + (k + 1) * 30, 2800.0 + (k + 1) as f64 * 200.0));
        }
        let (segs, report) = segment_session(&pts, &SegmentationConfig::default());
        assert_eq!(segs.len(), 2, "{segs:?}");
        assert_eq!(report.rule_fires[3], 1, "rule 4 fired once");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cfg = SegmentationConfig::default();
        let (segs, _) = segment_session(&[], &cfg);
        assert!(segs.is_empty());
        let (segs, _) = segment_session(&[pt(0, 0.0)], &cfg);
        assert!(segs.is_empty(), "single point is no driven segment");
        let (segs, _) = segment_session(&[pt(0, 0.0), pt(10, 100.0)], &cfg);
        assert_eq!(segs, vec![0..2]);
    }

    #[test]
    fn rule5_resplit() {
        // A long "segment" with a 2-minute frozen pause in the middle.
        let mut pts = Vec::new();
        for k in 0..5 {
            pts.push(pt(k * 30, k as f64 * 300.0));
        }
        pts.push(pt(120 + 120, 1200.0)); // frozen 120 s (≥ rule5 90 s window)
        for k in 0..5 {
            pts.push(pt(240 + (k + 1) * 30, 1200.0 + (k + 1) as f64 * 300.0));
        }
        let cfg = SegmentationConfig::default();
        let mut report = SegmentationReport::default();
        let subs = resplit_rule1(&pts, 100, &cfg, &mut report);
        assert_eq!(subs.len(), 2, "{subs:?}");
        assert_eq!(report.rule_fires[4], 1);
        assert!(subs[0].start >= 100, "offsets are rebased");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn mk(t: i64, x: f64) -> RoutePoint {
        RoutePoint {
            point_id: t as u64,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos: Point::new(x, 0.0),
            timestamp: Timestamp::from_secs(t),
            speed_kmh: 0.0,
            heading_deg: 0.0,
            fuel_ml: 0.0,
            truth: PointTruth { seq: 0, element: None },
        }
    }

    proptest! {
        /// Segments are sorted, non-overlapping, within bounds, and at
        /// least 2 points long.
        #[test]
        fn segments_well_formed(
            steps in proptest::collection::vec((1i64..800, -500f64..500.0), 1..60)
        ) {
            let mut t = 0;
            let mut x = 0.0;
            let mut pts = vec![mk(0, 0.0)];
            for (dt, dx) in steps {
                t += dt;
                x += dx;
                pts.push(mk(t, x));
            }
            let (segs, _) = segment_session(&pts, &SegmentationConfig::default());
            let mut prev_end = 0;
            for s in &segs {
                prop_assert!(s.start >= prev_end);
                prop_assert!(s.end <= pts.len());
                prop_assert!(s.end - s.start >= 2);
                prev_end = s.end;
            }
        }

        /// The columnar implementation is exactly the reference: same
        /// segment ranges, same per-rule fire counts, on arbitrary streams
        /// (including out-of-order timestamps and frozen runs).
        #[test]
        fn columns_match_reference(
            steps in proptest::collection::vec((-60i64..800, -80f64..80.0), 1..80)
        ) {
            let mut t = 0;
            let mut x = 0.0;
            let mut pts = vec![mk(0, 0.0)];
            for (dt, dx) in steps {
                t += dt;
                x += dx;
                pts.push(mk(t, x));
            }
            let cfg = SegmentationConfig::default();
            let reference = segment_session_reference(&pts, &cfg);
            let columnar = segment_session(&pts, &cfg);
            prop_assert_eq!(reference, columnar);
        }
    }
}
