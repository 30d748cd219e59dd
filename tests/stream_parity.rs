//! Stream/batch parity: running the study as a stream — points arriving
//! one at a time through the bounded queue, trips closed by the
//! watermark, cleaned incrementally — must converge to the *identical*
//! study output the batch pipeline produces from the same seed. Not
//! statistically close: equal, field for field.

use std::sync::OnceLock;

use taxi_traces::core::{Study, StudyConfig, StudyOutput};
use taxi_traces::stream::{run_stream, StreamConfig, StreamRun};

fn config() -> StudyConfig {
    StudyConfig::scaled(7, 0.1)
}

fn batch() -> &'static StudyOutput {
    static OUT: OnceLock<StudyOutput> = OnceLock::new();
    OUT.get_or_init(|| Study::new(config()).run().expect("batch study runs"))
}

fn streamed() -> &'static StreamRun {
    static RUN: OnceLock<StreamRun> = OnceLock::new();
    RUN.get_or_init(|| {
        run_stream(config(), &StreamConfig::default(), None).expect("stream runs")
    })
}

#[test]
fn healthy_feed_loses_nothing() {
    let run = streamed();
    assert_eq!(run.report.late_dropped, 0, "no record may fall past the watermark");
    assert_eq!(run.report.records_malformed, 0);
    assert_eq!(run.report.records_total, run.report.feed.records);
    assert!(run.report.trips_closed > 0);
}

#[test]
fn cleaning_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(b.cleaning, s.output.cleaning, "cleaning totals must match batch");
    assert_eq!(b.segments.len(), s.output.segments.len());
    for (x, y) in b.segments.iter().zip(&s.output.segments) {
        assert_eq!(x.trip_id, y.trip_id);
        assert_eq!(x.taxi, y.taxi);
        assert_eq!(x.start_time, y.start_time);
        assert_eq!(x.points, y.points);
    }
}

#[test]
fn od_funnel_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(b.funnel_rows, s.output.funnel_rows, "Table 3 funnel must match batch");
}

#[test]
fn fused_transition_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(b.transitions.len(), s.output.transitions.len());
    for (x, y) in b.transitions.iter().zip(&s.output.transitions) {
        assert_eq!(x, y, "fused transition records must be byte-identical");
    }
}

#[test]
fn quarantine_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(
        b.quarantine.entries(),
        s.output.quarantine.entries(),
        "a healthy stream quarantines exactly what batch does"
    );
}

#[test]
fn stream_metrics_present_in_snapshot() {
    let s = streamed();
    for name in [
        "stream.records_total",
        "stream.trips_closed",
        "stream.late_dropped",
        "stream.backpressure_stalls",
    ] {
        assert!(s.output.metrics.counter(name).is_some(), "missing counter {name}");
    }
    assert!(s.output.metrics.gauge("stream.queue_depth").is_some());
    assert!(s.output.metrics.gauge("stream.watermark_lag_s").is_some());
    assert_eq!(
        s.output.metrics.counter("stream.records_total"),
        Some(s.report.feed.records)
    );
}

/// Pins the live sliding window for one quick seed: the peak and the
/// final `stream.window.*` gauges, at the shipped one-hour window and at
/// a window wider than the study year. Only the stream feeds the window,
/// so no parity test covers it.
#[test]
fn live_window_is_pinned() {
    let window = |window_s: i64| {
        let cfg = StreamConfig { window_s, ..StreamConfig::default() };
        let run = run_stream(StudyConfig::quick(7), &cfg, None).expect("stream runs");
        let gauge = |name: &str| run.output.metrics.gauge(name).expect(name);
        (
            run.report.window_peak_transitions,
            gauge("stream.window.transitions"),
            gauge("stream.window.od_pairs"),
            run.output.transitions.len(),
        )
    };
    // One hour: transitions are sparse, so at most one is live at a time
    // and the window has drained by the end of the feed.
    assert_eq!(window(StreamConfig::default().window_s), (1, 0.0, 0.0, 9));
    // Wider than the year: nothing is evicted, so the window ends holding
    // every fused transition of the study, over four O-D pairs.
    assert_eq!(window(400 * 86_400), (9, 9.0, 4.0, 9));
}
