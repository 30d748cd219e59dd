//! The streaming ingest engine.
//!
//! One feeder thread pushes the arrival-ordered feed through a bounded
//! queue; the processor thread runs the watermark machine, cleans each
//! trip the moment it closes, admits its O-D transitions' pair labels to
//! the sliding window, and checkpoints the stream cursor. A resumed run
//! replays the feed prefix through the same closes and ledger filing, so
//! only metrics, the window and checkpoint writes depend on whether a
//! record is live. At end of stream the accumulated per-session products
//! are assembled through the *unchanged* batch stages (`assemble_cleaned
//! → analyze_od → match_fuse`), which is what makes stream-end output
//! byte-identical to `Study::run` on the same seed — parity by
//! construction, pinned by `tests/stream_parity.rs`.
//!
//! Backpressure contract: when the queue is full the feeder **blocks**
//! (counting `stream.backpressure_stalls`); records are never dropped to
//! shed load. The only records that leave the pipeline early are
//! malformed or late-past-watermark ones, and both land in the
//! quarantine ledger under the `stream` stage's error budget.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::thread;

use taxitrace_cleaning::{clean_checked, CleaningTotals, TripSegment};
use taxitrace_core::{
    check_budget, clean_failure, injected_clean_panic, resolved_fault_policy, transition_anomaly,
    Error, Quarantine, QuarantineEntry, QuarantineReason, Simulated, Study, StudyConfig, TaskError,
};
use taxitrace_od::OdAnalyzer;
use taxitrace_traces::{RawTrip, RoutePoint};

use crate::checkpoint::{
    load_stream_checkpoint, save_stream_checkpoint, stream_fingerprint, STREAM_CHECKPOINT_FILE,
};
use crate::feed::{build_feed, FLAG_BURST, FLAG_STALL};
use crate::metrics::StreamMetrics;
use crate::watermark::{Disposition, TripBuffer, WatermarkConfig, WatermarkMachine};
use crate::window::SlidingWindow;
use crate::{StreamConfig, StreamReport, StreamRun};

/// How long an injected feeder stall pauses. Affects liveness metrics
/// only — never the data.
const STALL_PAUSE: std::time::Duration = std::time::Duration::from_millis(2);

/// Products of one closed session, in the exact shape the batch clean
/// stage would have produced for it.
#[derive(Debug)]
struct SessionProducts {
    /// Cleaned segments (empty when quarantined — batch absorbs nothing
    /// from a failed clean task).
    segments: Vec<TripSegment>,
    /// Clean-stage quarantine entry, if the session failed cleaning.
    quarantine: Option<QuarantineEntry>,
}

/// What the processor accumulates from the feed. Replaying the feed
/// prefix after a resume rebuilds it exactly.
#[derive(Debug, Default)]
struct StreamState {
    /// Aggregate cleaning totals over closed sessions.
    totals: CleaningTotals,
    /// Closed sessions keyed by session index.
    closed: BTreeMap<u32, SessionProducts>,
    /// Stream-stage quarantine entries in feed order.
    stream_quarantine: Vec<QuarantineEntry>,
}

/// Runs the study as a stream. See [`crate::run_stream`].
pub fn run_stream(
    config: StudyConfig,
    stream_cfg: &StreamConfig,
    checkpoint_dir: Option<&Path>,
) -> Result<StreamRun, Error> {
    stream_cfg.validate().map_err(Error::Pipeline)?;
    let sim = Study::new(config).simulate()?;
    let registry = sim.registry().clone();
    let metrics = StreamMetrics::new(&registry);
    let mut span = registry.span("study/stream");

    let plan = sim.config.chaos.clone();
    let (feed, feed_stats) = build_feed(sim.store.sessions(), plan.as_ref());
    let feed_len = feed.len() as u64;

    // Resume from a stream-cursor checkpoint when one matches both
    // configs; otherwise start from record zero.
    let fingerprint = stream_fingerprint(&sim.config, stream_cfg);
    let ck_path = checkpoint_dir.map(|d| d.join(STREAM_CHECKPOINT_FILE));
    let mut resumed_from = None;
    if let Some(path) = &ck_path {
        if let Some((cursor, counters)) = load_stream_checkpoint(path, fingerprint) {
            for (name, value) in &counters {
                metrics.restore(name, *value);
            }
            resumed_from = Some(cursor);
            metrics.resumes.inc();
        }
    }
    let cursor_start = resumed_from.unwrap_or(0);
    let mut state = StreamState::default();

    // Bounded ingest queue. The feeder owns the feed; the processor owns
    // everything else.
    let queue_depth = Arc::new(AtomicU64::new(0));
    let (tx, rx) = sync_channel::<crate::feed::FeedRecord>(stream_cfg.queue_capacity);
    let feeder = {
        let metrics = metrics.clone();
        let depth = Arc::clone(&queue_depth);
        thread::Builder::new()
            .name("stream-feeder".into())
            .spawn(move || {
                for (i, record) in feed.into_iter().enumerate() {
                    let live = (i as u64) >= cursor_start;
                    if live && record.flags & FLAG_STALL != 0 {
                        metrics.feeder_stalls.inc();
                        thread::sleep(STALL_PAUSE);
                    }
                    // sync(queue_depth): incremented before send, decremented
                    // by the processor after recv; pure gauge bookkeeping, so
                    // Relaxed is enough and transient over-count is fine.
                    depth.fetch_add(1, Ordering::Relaxed);
                    match tx.try_send(record) {
                        Ok(()) => {}
                        Err(TrySendError::Full(record)) => {
                            if live {
                                metrics.backpressure_stalls.inc();
                            }
                            if tx.send(record).is_err() {
                                // sync(queue_depth): undo — the record never
                                // entered the queue.
                                depth.fetch_sub(1, Ordering::Relaxed);
                                return;
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            // sync(queue_depth): undo, as above.
                            depth.fetch_sub(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            })
            .map_err(|e| Error::Pipeline(format!("spawn stream feeder: {e}")))?
    };

    // Live O-D extraction feeds the sliding window only; the
    // authoritative tables are computed by the batch stages at assembly.
    let analyzer = OdAnalyzer::from_city(&sim.city);
    let (error_budget, max_attempts) = resolved_fault_policy(&sim.config);
    let kill_after = plan.as_ref().map(|p| p.stream_kill_after_records).unwrap_or(0);

    let mut machine = WatermarkMachine::new(WatermarkConfig {
        lateness_s: stream_cfg.lateness_s,
        idle_close_s: stream_cfg.idle_close_s,
    });
    let mut window = SlidingWindow::new(stream_cfg.window_s);
    let mut max_depth: u64 = 0;
    let mut next_index: u64 = 0;

    while let Ok(record) = rx.recv() {
        let i = next_index;
        next_index += 1;
        // sync(queue_depth): consumer side of the feeder's increment.
        let depth_before = queue_depth.fetch_sub(1, Ordering::Relaxed);
        let live = i >= cursor_start;
        if live {
            metrics.records_total.inc();
            metrics.queue_depth.set(depth_before.saturating_sub(1) as f64);
            max_depth = max_depth.max(depth_before);
            if record.flags & FLAG_BURST != 0 {
                metrics.bursts.inc();
            }
        }

        let trip_id = record.point.trip_id.0;
        let point_id = record.point.point_id;
        if is_malformed(&record.point) {
            if live {
                metrics.records_malformed.inc();
            }
            state.stream_quarantine.push(QuarantineEntry {
                stage: "stream".into(),
                record: trip_id,
                reason: QuarantineReason::MalformedRecord,
                detail: format!("non-finite position at point {point_id} (feed record #{i})"),
            });
        } else {
            let event_s = record.point.timestamp.secs();
            let disposition =
                machine.offer(record.session_index, record.point_index, event_s, record.point);
            if disposition == Disposition::LatePastWatermark {
                if live {
                    metrics.late_dropped.inc();
                }
                state.stream_quarantine.push(QuarantineEntry {
                    stage: "stream".into(),
                    record: trip_id,
                    reason: QuarantineReason::LatePastWatermark,
                    detail: format!(
                        "arrived after trip {trip_id} closed past the watermark \
                         (feed record #{i})"
                    ),
                });
            }
            for buffer in machine.drain_closable() {
                let live = live.then_some((&mut window, &metrics));
                close_trip(buffer, &sim, &analyzer, max_attempts, &mut state, live);
            }
        }

        if live {
            metrics.watermark_lag_s.set(machine.lag_s() as f64);
            if let Some(frontier) = machine.frontier_s() {
                window.advance(frontier, &metrics);
            }
            let cursor = i + 1;
            if let Some(path) = &ck_path {
                let periodic = stream_cfg.checkpoint_every > 0
                    && cursor.is_multiple_of(stream_cfg.checkpoint_every)
                    && cursor < feed_len;
                if periodic {
                    metrics.checkpoints.inc();
                    save_stream_checkpoint(path, fingerprint, cursor, &metrics)?;
                }
            }
            if kill_after > 0 && cursor == kill_after {
                if let Some(path) = &ck_path {
                    metrics.checkpoints.inc();
                    save_stream_checkpoint(path, fingerprint, cursor, &metrics)?;
                }
                drop(rx);
                let _ = feeder.join();
                return Err(Error::InjectedKill { stage: format!("stream@{cursor}") });
            }
        }
    }
    let _ = feeder.join();
    metrics.queue_depth.set(0.0);

    // End of stream: every still-open trip closes now. All of these are
    // live — a killed run never reaches its flush.
    for buffer in machine.flush() {
        let live = Some((&mut window, &metrics));
        close_trip(buffer, &sim, &analyzer, max_attempts, &mut state, live);
    }
    metrics.watermark_lag_s.set(0.0);

    // Stream-stage accounting: same ledger surface and budget law as
    // every batch stage.
    let mut stream_ledger = Quarantine::default();
    for entry in &state.stream_quarantine {
        stream_ledger.push(entry.clone());
    }
    stream_ledger.record_stage_metrics(&registry, "stream", feed_len as usize);
    check_budget("stream", state.stream_quarantine.len(), feed_len as usize, error_budget)?;

    span.set_items(feed_len);
    span.finish();

    // Assemble per-session products in session-index order and hand the
    // rest of the pipeline to the unchanged batch stages.
    let session_count = sim.store.sessions().len();
    let mut segments: Vec<TripSegment> = Vec::new();
    let mut stage_quarantine: Vec<QuarantineEntry> = Vec::new();
    for si in 0..session_count as u32 {
        let products = match state.closed.remove(&si) {
            Some(products) => products,
            // A session none of whose records survived the feed (every
            // point garbled): clean its empty reassembly so session
            // totals stay aligned with the batch shape.
            None => clean_one(
                &rebuild_session(&sim.store.sessions()[si as usize], Vec::new()),
                &sim.config,
                max_attempts,
                &mut state.totals,
            ),
        };
        segments.extend(products.segments);
        if let Some(entry) = products.quarantine {
            stage_quarantine.push(entry);
        }
    }
    stage_quarantine.append(&mut state.stream_quarantine);

    let report = StreamReport {
        feed: feed_stats,
        records_total: metrics.records_total.get(),
        records_malformed: metrics.records_malformed.get(),
        late_dropped: metrics.late_dropped.get(),
        trips_closed: metrics.trips_closed.get(),
        backpressure_stalls: metrics.backpressure_stalls.get(),
        feeder_stalls: metrics.feeder_stalls.get(),
        checkpoints: metrics.checkpoints.get(),
        resumes: metrics.resumes.get(),
        resumed_from,
        max_queue_depth: max_depth,
        window_peak_transitions: window.peak() as u64,
    };

    let output = sim
        .assemble_cleaned(segments, state.totals, stage_quarantine)?
        .analyze_od()?
        .match_fuse()?;
    Ok(StreamRun { output, report })
}

fn is_malformed(point: &RoutePoint) -> bool {
    !point.pos.x.is_finite()
        || !point.pos.y.is_finite()
        || !point.geo.lon.is_finite()
        || !point.geo.lat.is_finite()
}

/// Rebuilds a session from its reassembled points. On a healthy feed the
/// reassembly is the original point list, so the result is field-for-field
/// identical to the stored session; on a lossy feed (chaos) the device
/// summary is resynced the same way the batch trace-fault path does.
fn rebuild_session(original: &RawTrip, points: Vec<RoutePoint>) -> RawTrip {
    let mut session = RawTrip {
        id: original.id,
        taxi: original.taxi,
        start_time: original.start_time,
        end_time: original.end_time,
        points,
        total_time: original.total_time,
        total_distance_m: original.total_distance_m,
        total_fuel_ml: original.total_fuel_ml,
        truth_trips: original.truth_trips.clone(),
    };
    if session.points.len() != original.points.len() {
        if let Some(max_ts) = session.points.iter().map(|p| p.timestamp).max() {
            session.end_time = max_ts;
            session.total_time = max_ts.since(session.start_time);
        }
    }
    session
}

/// Replicates the batch clean task for one session: same panic injection,
/// same anomaly check, and the ledger entry the batch fold files for the
/// executor's verdict (a deterministic anomaly fails all `max_attempts`).
/// Quarantined sessions contribute no segments and no totals — exactly
/// like a failed batch task slot.
fn clean_one(
    session: &RawTrip,
    config: &StudyConfig,
    max_attempts: u32,
    totals: &mut CleaningTotals,
) -> SessionProducts {
    let failure = match injected_clean_panic(config, session.id.0) {
        Some(message) => TaskError::Panicked { message },
        None => {
            match clean_checked(session, &config.cleaning, &config.fault.anomaly) {
                Ok(cleaned) => {
                    totals.absorb(&cleaned.stats);
                    return SessionProducts { segments: cleaned.segments, quarantine: None };
                }
                Err(error) => TaskError::Failed { error, attempts: max_attempts },
            }
        }
    };
    SessionProducts { segments: Vec::new(), quarantine: Some(clean_failure(session.id.0, failure)) }
}

/// Processes one watermark-closed trip: incremental clean, then, for a
/// `live` close (`None` while replaying the feed prefix after a resume),
/// the `stream.trips_closed` count and live O-D extraction into the
/// sliding window. A transition enters the window under the filters batch
/// applies before matching: not anomalous (the O-D stage) and
/// post-filtered (stage 4).
fn close_trip(
    buffer: TripBuffer,
    sim: &Simulated,
    analyzer: &OdAnalyzer,
    max_attempts: u32,
    state: &mut StreamState,
    live: Option<(&mut SlidingWindow, &StreamMetrics)>,
) {
    let si = buffer.session_index;
    let last_event_s = buffer.last_event_s;
    let points: Vec<RoutePoint> = buffer.points.into_values().collect();
    let session = rebuild_session(&sim.store.sessions()[si as usize], points);
    let products = clean_one(&session, &sim.config, max_attempts, &mut state.totals);

    if let Some((window, metrics)) = live {
        metrics.trips_closed.inc();
        for t in analyzer.transitions(&products.segments) {
            if t.post_filtered
                && transition_anomaly(&products.segments[t.segment_index], &t).is_none()
            {
                window.push(last_event_s, t.pair_label(), metrics);
            }
        }
    }
    state.closed.insert(si, products);
}
