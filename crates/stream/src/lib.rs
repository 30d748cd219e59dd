//! `taxitrace-stream`: streaming ingest for the taxi-trace study.
//!
//! The batch pipeline (`taxitrace-core`) reads complete sessions out of
//! the store. This crate replays the same data the way a live server
//! would see it — individual route points in arrival order, interleaved
//! across the fleet — through a bounded queue with explicit
//! backpressure, closes trips against an event-time watermark, cleans
//! each trip and extracts its O-D transitions the moment it closes, and
//! keeps a sliding window of O-D statistics while the stream runs.
//!
//! The headline property is **batch parity**: at end of stream the
//! accumulated per-session products are assembled through the unchanged
//! batch stages, so [`run_stream`] returns a [`StudyOutput`] that is
//! byte-identical to `Study::run` on the same seed (pinned by
//! `tests/stream_parity.rs`). Robustness properties ride on top:
//!
//! * late-past-watermark and malformed records land in the quarantine
//!   ledger under the `stream` stage's error budget — never a silent
//!   drop;
//! * a full queue blocks the feeder (typed backpressure, counted by
//!   `stream.backpressure_stalls`);
//! * the stream cursor checkpoints into a TTCK container, so a
//!   mid-stream kill resumes byte-identically;
//! * `FaultPlan` gains seeded stream faults (mid-stream kill, late-data
//!   flood, burst arrival, feeder stall) for the chaos suite.
//!
//! ```no_run
//! use taxitrace_core::StudyConfig;
//! use taxitrace_stream::{run_stream, StreamConfig};
//!
//! let config = StudyConfig::quick(7);
//! let run = run_stream(config, &StreamConfig::default(), None).expect("stream");
//! assert_eq!(run.report.late_dropped, 0);
//! let table3 = run.output.funnel();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod checkpoint;
mod engine;
mod feed;
mod metrics;
mod watermark;
mod window;

use std::path::Path;

use taxitrace_core::{Error, StudyConfig, StudyOutput};

pub use checkpoint::{stream_fingerprint, STREAM_CHECKPOINT_FILE};
pub use feed::{build_feed, FeedRecord, FeedStats, FLAG_BURST, FLAG_GARBLED, FLAG_LATE, FLAG_STALL};
pub use metrics::StreamMetrics;
pub use watermark::{Disposition, TripBuffer, WatermarkConfig, WatermarkMachine};
pub use window::SlidingWindow;

/// Streaming ingest knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// How far the event-time watermark trails the frontier, seconds.
    /// Larger values tolerate more arrival skew before declaring a
    /// record late.
    pub lateness_s: i64,
    /// Idle gap after a trip's last event before the watermark may close
    /// it, seconds. Must exceed the worst in-trip silent gap (the
    /// simulator caps those at 1400 s) or healthy trips close early.
    pub idle_close_s: i64,
    /// Bounded ingest queue capacity, records. A full queue blocks the
    /// feeder — backpressure, not loss.
    pub queue_capacity: usize,
    /// Sliding statistics window over event time, seconds.
    pub window_s: i64,
    /// Write a stream-cursor checkpoint every N records (0 disables
    /// periodic checkpoints; an injected kill always writes one).
    pub checkpoint_every: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            lateness_s: 300,
            idle_close_s: 3600,
            queue_capacity: 1024,
            window_s: 3600,
            checkpoint_every: 0,
        }
    }
}

impl StreamConfig {
    /// Validates the knobs; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.lateness_s < 0 {
            return Err(format!("stream lateness_s must be >= 0, got {}", self.lateness_s));
        }
        if self.idle_close_s <= 0 {
            return Err(format!("stream idle_close_s must be > 0, got {}", self.idle_close_s));
        }
        if self.queue_capacity == 0 {
            return Err("stream queue_capacity must be >= 1".into());
        }
        if self.window_s <= 0 {
            return Err(format!("stream window_s must be > 0, got {}", self.window_s));
        }
        Ok(())
    }
}

/// What the stream did, next to what it produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// What the chaos plan injected into the feed.
    pub feed: FeedStats,
    /// Records consumed live (excludes catch-up replay after a resume).
    pub records_total: u64,
    /// Records rejected for non-finite positions (quarantined).
    pub records_malformed: u64,
    /// Records that arrived past their trip's close (quarantined).
    pub late_dropped: u64,
    /// Trips closed by watermark or end-of-stream flush.
    pub trips_closed: u64,
    /// Times the feeder blocked on a full queue.
    pub backpressure_stalls: u64,
    /// Injected feeder stalls honoured.
    pub feeder_stalls: u64,
    /// Stream-cursor checkpoints written.
    pub checkpoints: u64,
    /// Times this logical run resumed from a checkpoint.
    pub resumes: u64,
    /// Cursor this process resumed from, if it did.
    pub resumed_from: Option<u64>,
    /// Deepest the ingest queue got.
    pub max_queue_depth: u64,
    /// Most transitions simultaneously inside the sliding window.
    pub window_peak_transitions: u64,
}

/// Output of a streamed study: the batch-identical study products plus
/// the stream's own report.
#[derive(Debug)]
pub struct StreamRun {
    pub output: StudyOutput,
    pub report: StreamReport,
}

/// Runs the full study as a stream. `checkpoint_dir`, when given, holds
/// the stream-cursor checkpoint (`stream.ttck`): an existing checkpoint
/// whose config fingerprint matches is resumed from; an injected
/// mid-stream kill writes one before returning
/// [`Error::InjectedKill`].
pub fn run_stream(
    config: StudyConfig,
    stream: &StreamConfig,
    checkpoint_dir: Option<&Path>,
) -> Result<StreamRun, Error> {
    engine::run_stream(config, stream, checkpoint_dir)
}
