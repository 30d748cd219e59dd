use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Range;

use serde::{Deserialize, Serialize};
use taxitrace_traces::{RawTrip, RoutePoint, TaxiId, TraceColumns, TripId};
use taxitrace_timebase::Timestamp;

use crate::anomaly::{kept_anomaly, AnomalyConfig, AnomalyKind};
use crate::filters::{segment_length_m, FilterConfig, FilterStats};
use crate::order::{in_order, repair_out_of_order, OrderRepairReport};
use crate::segmentation::{
    resplit_columns, segment_columns, SegmentationConfig, SegmentationReport,
};

/// Full cleaning configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CleaningConfig {
    pub segmentation: SegmentationConfig,
    pub filters: FilterConfig,
}

/// One cleaned, driveable trip segment.
///
/// A segment is identified by its parent session and the start time of its
/// first point — matching the paper's §IV-F "trip identifier (trip id)
/// together with the start time of the trip as a unique identifier".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripSegment {
    pub trip_id: TripId,
    pub taxi: TaxiId,
    pub start_time: Timestamp,
    pub points: Vec<RoutePoint>,
}

impl TripSegment {
    /// Path length, metres.
    pub fn length_m(&self) -> f64 {
        segment_length_m(&self.points)
    }

    /// Wall-clock duration of the segment.
    pub fn duration(&self) -> taxitrace_timebase::Duration {
        // lint:allow(panic-free-library): segment constructor keeps >= 2 points
        let last = self.points.last().expect("segments are non-empty");
        last.timestamp - self.points[0].timestamp
    }

    /// Fuel consumed over the segment, ml (difference of the session's
    /// cumulative meter).
    pub fn fuel_ml(&self) -> f64 {
        // lint:allow(panic-free-library): segment constructor keeps >= 2 points
        let last = self.points.last().expect("segments are non-empty");
        (last.fuel_ml - self.points[0].fuel_ml).max(0.0)
    }
}

/// Per-session cleaning statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CleaningStats {
    pub raw_points: usize,
    /// Whether order repair had to change the order.
    pub order_repaired: bool,
    /// Exact duplicate uploads removed before segmentation.
    pub duplicates_removed: usize,
    pub segmentation: SegmentationReport,
    pub filters: FilterStats,
}

/// A cleaned session: segments plus audit trail.
#[derive(Debug, Clone)]
pub struct CleanedSession {
    pub trip_id: TripId,
    pub taxi: TaxiId,
    pub segments: Vec<TripSegment>,
    pub stats: CleaningStats,
    pub order_report: OrderRepairReport,
}

/// Runs the full §IV-B/C cleaning pipeline on one raw session:
/// order repair → Table 2 segmentation → rule 5 re-split → filters.
pub fn clean_session(session: &RawTrip, config: &CleaningConfig) -> CleanedSession {
    let Ok(cleaned) = clean_with(session, config, |_, _| Ok::<(), Infallible>(()));
    cleaned
}

/// [`clean_session`], then the post-cleaning invariant checks of
/// [`AnomalyConfig`] on the kept segments, in order. The first violation
/// comes back as its error class and a detail naming the segment; the
/// session then belongs in quarantine, not in the study. The checks read
/// the session's columns, so no kept point is measured twice.
pub fn clean_checked(
    session: &RawTrip,
    config: &CleaningConfig,
    anomaly: &AnomalyConfig,
) -> Result<CleanedSession, (AnomalyKind, String)> {
    clean_with(session, config, |cols, kept| {
        kept_anomaly(cols, kept, anomaly).map_or(Ok(()), Err)
    })
}

/// The cleaning pipeline, with `check` run over the session columns and
/// the kept ranges before any segment is materialised.
fn clean_with<E>(
    session: &RawTrip,
    config: &CleaningConfig,
    check: impl FnOnce(&TraceColumns, &[Range<usize>]) -> Result<(), E>,
) -> Result<CleanedSession, E> {
    // One struct-of-arrays gather per session; order repair's path length,
    // segmentation, rule 5, the filters and `check` all stream over these
    // columns instead of the point structs. A session already in order is
    // cleaned straight from its own points, and its path length is the sum
    // of the step column.
    let points = &session.points[..];
    let (mut ordered, mut cols, order_report) = if in_order(points) {
        let cols = TraceColumns::from_points(points);
        let report = OrderRepairReport::in_order(cols.step_m.iter().sum());
        (Cow::Borrowed(points), cols, report)
    } else {
        let (ordered, report, cols) = repair_out_of_order(points);
        (Cow::Owned(ordered), cols, report)
    };
    let mut duplicates_removed = 0;
    if let Some(keep) = reuploads(&ordered) {
        cols.retain_rows(&keep);
        let mut flags = keep.iter();
        let kept = ordered.to_mut();
        kept.retain(|_| flags.next() == Some(&true));
        duplicates_removed = keep.len() - kept.len();
    }
    let (ranges, mut seg_report) = segment_columns(&cols, &config.segmentation);

    // Rule 5: "If after the first round, there are still trips longer than
    // 40 km, we try to split these with the rule 1, having 1.5 minutes'
    // interval."
    let mut kept: Vec<Range<usize>> = Vec::with_capacity(ranges.len());
    for r in ranges {
        if cols.length_m(r.clone()) > config.segmentation.rule5_trigger_m {
            kept.extend(resplit_columns(&cols, r, &config.segmentation, &mut seg_report));
        } else {
            kept.push(r);
        }
    }

    let mut filter_stats = FilterStats::default();
    kept.retain(|r| config.filters.admit_range(&cols, r.clone(), &mut filter_stats));
    check(&cols, &kept)?;
    let segments = kept
        .into_iter()
        .map(|r| {
            let pts = &ordered[r];
            TripSegment {
                trip_id: session.id,
                taxi: session.taxi,
                start_time: pts[0].timestamp,
                points: pts.to_vec(),
            }
        })
        .collect();

    Ok(CleanedSession {
        trip_id: session.id,
        taxi: session.taxi,
        segments,
        stats: CleaningStats {
            raw_points: session.points.len(),
            order_repaired: order_report.orders_differed,
            duplicates_removed,
            segmentation: seg_report,
            filters: filter_stats,
        },
        order_report,
    })
}

/// Flags exact duplicate uploads: a point that re-sends the last kept
/// point's measurement. Returns one keep flag per point, or `None` when
/// nothing is to be removed. Part of "filtering the most obvious errors
/// from the data set".
fn reuploads(points: &[RoutePoint]) -> Option<Vec<bool>> {
    let first = points.windows(2).position(|w| is_reupload(&w[0], &w[1]))?;
    let mut keep = vec![true; points.len()];
    let mut last = first;
    for (i, flag) in keep.iter_mut().enumerate().skip(first + 1) {
        if is_reupload(&points[last], &points[i]) {
            *flag = false;
        } else {
            last = i;
        }
    }
    Some(keep)
}

/// Whether `next` re-sends `prev`'s measurement: same timestamp, position
/// and speed.
fn is_reupload(prev: &RoutePoint, next: &RoutePoint) -> bool {
    next.timestamp == prev.timestamp
        && next.pos.distance(prev.pos) < 1e-9
        && next.speed_kmh == prev.speed_kmh
}

/// Ground-truth validation of recovered segments against the simulator's
/// customer-trip boundaries.
///
/// A truth leg counts as *recovered* when some segment covers ≥ `coverage`
/// of the leg's sequence range **and** the leg makes up at least half of
/// that segment — the second condition stops an under-segmented
/// whole-session blob from counting as a recovery of every leg inside it.
/// Precision counts segments that recover some leg under the same rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentValidation {
    pub truth_legs: usize,
    pub recovered_legs: usize,
    pub segments: usize,
    pub matched_segments: usize,
}

impl SegmentValidation {
    /// Fraction of true legs recovered by some segment.
    pub fn recall(&self) -> f64 {
        if self.truth_legs == 0 {
            return 1.0;
        }
        self.recovered_legs as f64 / self.truth_legs as f64
    }

    /// Fraction of produced segments that correspond to a true leg.
    pub fn precision(&self) -> f64 {
        if self.segments == 0 {
            return 1.0;
        }
        self.matched_segments as f64 / self.segments as f64
    }
}

/// Compares cleaned segments to the session's ground truth.
pub fn validate_segments(
    session: &RawTrip,
    cleaned: &CleanedSession,
    coverage: f64,
) -> SegmentValidation {
    let mut v = SegmentValidation {
        truth_legs: session.truth_trips.len(),
        segments: cleaned.segments.len(),
        ..Default::default()
    };
    let seg_ranges: Vec<(u32, u32)> = cleaned
        .segments
        .iter()
        .map(|s| {
            let mut lo = u32::MAX;
            let mut hi = 0;
            for p in &s.points {
                lo = lo.min(p.truth.seq);
                hi = hi.max(p.truth.seq);
            }
            (lo, hi)
        })
        .collect();
    let mut seg_matched = vec![false; seg_ranges.len()];
    for leg in &session.truth_trips {
        let leg_len = (leg.end_seq - leg.start_seq + 1) as f64;
        let mut recovered = false;
        for (si, &(lo, hi)) in seg_ranges.iter().enumerate() {
            let overlap_lo = lo.max(leg.start_seq);
            let overlap_hi = hi.min(leg.end_seq);
            if overlap_hi < overlap_lo {
                continue;
            }
            let overlap = (overlap_hi - overlap_lo + 1) as f64;
            let seg_len = (hi - lo + 1) as f64;
            if overlap / leg_len >= coverage && overlap / seg_len >= 0.5 {
                recovered = true;
                seg_matched[si] = true;
            }
        }
        if recovered {
            v.recovered_legs += 1;
        }
    }
    v.matched_segments = seg_matched.iter().filter(|&&m| m).count();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::repair_order;
    use taxitrace_roadnet::synth::{generate, OuluConfig};
    use taxitrace_traces::{simulate_fleet, FleetConfig};
    use taxitrace_weather::WeatherModel;

    fn simulated() -> Vec<RawTrip> {
        let city = generate(&OuluConfig::default());
        let weather = WeatherModel::new(42);
        simulate_fleet(&city, &weather, &FleetConfig::tiny(21)).sessions
    }

    #[test]
    fn pipeline_recovers_simulated_legs() {
        let sessions = simulated();
        assert!(!sessions.is_empty());
        let config = CleaningConfig::default();
        let mut total = SegmentValidation::default();
        for s in &sessions {
            let cleaned = clean_session(s, &config);
            let v = validate_segments(s, &cleaned, 0.7);
            total.truth_legs += v.truth_legs;
            total.recovered_legs += v.recovered_legs;
            total.segments += v.segments;
            total.matched_segments += v.matched_segments;
        }
        assert!(total.truth_legs > 20, "enough legs simulated: {}", total.truth_legs);
        assert!(
            total.recall() > 0.8,
            "segmentation recall {:.2} (recovered {}/{})",
            total.recall(),
            total.recovered_legs,
            total.truth_legs
        );
        assert!(
            total.precision() > 0.6,
            "segmentation precision {:.2} ({} matched / {} segments)",
            total.precision(),
            total.matched_segments,
            total.segments
        );
    }

    #[test]
    fn order_repair_recovers_true_sequence_on_simulated_data() {
        let sessions = simulated();
        let mut repaired_sessions = 0;
        let mut correct = 0;
        let mut total = 0;
        for s in &sessions {
            let (ordered, report) = repair_order(&s.points);
            if report.orders_differed {
                repaired_sessions += 1;
            }
            total += 1;
            let seqs: Vec<u32> = ordered.iter().map(|p| p.truth.seq).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            if seqs == sorted {
                correct += 1;
            }
        }
        assert!(repaired_sessions > 0, "corruption actually occurred");
        let rate = correct as f64 / total as f64;
        assert!(rate > 0.9, "order recovery rate {rate:.2}");
    }

    #[test]
    fn segments_respect_filters() {
        let sessions = simulated();
        let config = CleaningConfig::default();
        for s in &sessions {
            let cleaned = clean_session(s, &config);
            for seg in &cleaned.segments {
                assert!(seg.points.len() >= config.filters.min_points);
                assert!(seg.length_m() <= config.filters.max_length_m);
                assert!(seg.fuel_ml() >= 0.0);
                assert!(seg.duration().secs() >= 0);
                // Points in time order.
                for w in seg.points.windows(2) {
                    assert!(w[0].timestamp <= w[1].timestamp);
                }
            }
        }
    }

    #[test]
    fn duplicate_uploads_are_removed() {
        let sessions = simulated();
        let config = CleaningConfig::default();
        let total_dups: usize = sessions
            .iter()
            .map(|s| clean_session(s, &config).stats.duplicates_removed)
            .sum();
        // The default corruption config injects ~0.4% duplicates.
        assert!(total_dups > 0, "duplicates occurred and were removed");
        // After cleaning, no segment contains an exact duplicate pair.
        for s in &sessions {
            for seg in clean_session(s, &config).segments {
                for w in seg.points.windows(2) {
                    assert!(
                        !(w[0].timestamp == w[1].timestamp
                            && w[0].pos.distance(w[1].pos) < 1e-9
                            && w[0].speed_kmh == w[1].speed_kmh),
                        "duplicate survived cleaning"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let sessions = simulated();
        let config = CleaningConfig::default();
        let cleaned = clean_session(&sessions[0], &config);
        assert_eq!(cleaned.stats.raw_points, sessions[0].points.len());
        let fires: usize = cleaned.stats.segmentation.rule_fires.iter().sum();
        // At least one rule fired on a multi-leg session.
        if sessions[0].truth_trips.len() > 1 {
            assert!(fires > 0);
        }
    }
}
