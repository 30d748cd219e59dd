//! Pre-registered `stream.*` metric handles.
//!
//! Mirrors the `ServeMetrics` pattern: every stream metric is registered
//! up front so a metrics snapshot taken at any point — including from a
//! run that closed zero trips — carries the full `stream.*` family at
//! zero, and the lint registry can hold the closed set of names.

use taxitrace_obs::{Counter, Gauge, Registry};

/// Counter names persisted into (and restored from) the stream-cursor
/// checkpoint, so a killed-and-resumed run reports cumulative totals.
pub(crate) const PERSISTED_COUNTERS: &[&str] = &[
    "stream.records_total",
    "stream.records_malformed",
    "stream.late_dropped",
    "stream.trips_closed",
    "stream.bursts",
    "stream.backpressure_stalls",
    "stream.feeder_stalls",
    "stream.checkpoints",
    "stream.resumes",
];

/// Handles for every stream metric. Cheap to clone (each handle is an
/// `Arc` into the registry).
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    /// Records consumed from the ingest queue.
    pub records_total: Counter,
    /// Records rejected for non-finite positions.
    pub records_malformed: Counter,
    /// Records that arrived after their trip closed past the watermark.
    pub late_dropped: Counter,
    /// Trips released downstream (watermark closes + end-of-stream flush).
    pub trips_closed: Counter,
    /// Records flagged as part of an injected arrival burst.
    pub bursts: Counter,
    /// Times the feeder found the ingest queue full and had to block.
    pub backpressure_stalls: Counter,
    /// Injected feeder stalls honoured.
    pub feeder_stalls: Counter,
    /// Stream-cursor checkpoints written.
    pub checkpoints: Counter,
    /// Times a run resumed from a stream-cursor checkpoint.
    pub resumes: Counter,
    /// Records currently buffered in the ingest queue.
    pub queue_depth: Gauge,
    /// Frontier minus the stalest open trip's last event, seconds.
    pub watermark_lag_s: Gauge,
    /// Post-filtered transitions inside the sliding window.
    pub window_transitions: Gauge,
    /// Distinct O-D pairs inside the sliding window.
    pub window_od_pairs: Gauge,
}

impl StreamMetrics {
    pub fn new(registry: &Registry) -> Self {
        Self {
            records_total: registry.counter("stream.records_total"),
            records_malformed: registry.counter("stream.records_malformed"),
            late_dropped: registry.counter("stream.late_dropped"),
            trips_closed: registry.counter("stream.trips_closed"),
            bursts: registry.counter("stream.bursts"),
            backpressure_stalls: registry.counter("stream.backpressure_stalls"),
            feeder_stalls: registry.counter("stream.feeder_stalls"),
            checkpoints: registry.counter("stream.checkpoints"),
            resumes: registry.counter("stream.resumes"),
            queue_depth: registry.gauge("stream.queue_depth"),
            watermark_lag_s: registry.gauge("stream.watermark_lag_s"),
            window_transitions: registry.gauge("stream.window.transitions"),
            window_od_pairs: registry.gauge("stream.window.od_pairs"),
        }
    }

    /// The persisted counter's current value, by checkpoint name.
    pub(crate) fn persisted_value(&self, name: &str) -> u64 {
        match name {
            "stream.records_total" => self.records_total.get(),
            "stream.records_malformed" => self.records_malformed.get(),
            "stream.late_dropped" => self.late_dropped.get(),
            "stream.trips_closed" => self.trips_closed.get(),
            "stream.bursts" => self.bursts.get(),
            "stream.backpressure_stalls" => self.backpressure_stalls.get(),
            "stream.feeder_stalls" => self.feeder_stalls.get(),
            "stream.checkpoints" => self.checkpoints.get(),
            "stream.resumes" => self.resumes.get(),
            _ => 0,
        }
    }

    /// Restores a persisted counter by adding its checkpointed value onto
    /// the freshly-registered (zero) handle.
    pub(crate) fn restore(&self, name: &str, value: u64) {
        let handle = match name {
            "stream.records_total" => &self.records_total,
            "stream.records_malformed" => &self.records_malformed,
            "stream.late_dropped" => &self.late_dropped,
            "stream.trips_closed" => &self.trips_closed,
            "stream.bursts" => &self.bursts,
            "stream.backpressure_stalls" => &self.backpressure_stalls,
            "stream.feeder_stalls" => &self.feeder_stalls,
            "stream.checkpoints" => &self.checkpoints,
            "stream.resumes" => &self.resumes,
            _ => return,
        };
        handle.add(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_preregistered() {
        let registry = Registry::new();
        let _ = StreamMetrics::new(&registry);
        let snapshot = registry.snapshot();
        for name in PERSISTED_COUNTERS {
            assert!(snapshot.counter(name).is_some(), "missing {name}");
        }
        for gauge in
            ["stream.queue_depth", "stream.watermark_lag_s", "stream.window.transitions"]
        {
            assert!(snapshot.gauge(gauge).is_some(), "missing {gauge}");
        }
    }

    #[test]
    fn persisted_round_trip() {
        let registry = Registry::new();
        let metrics = StreamMetrics::new(&registry);
        metrics.trips_closed.add(7);
        assert_eq!(metrics.persisted_value("stream.trips_closed"), 7);
        metrics.restore("stream.trips_closed", 3);
        assert_eq!(metrics.trips_closed.get(), 10);
    }
}
