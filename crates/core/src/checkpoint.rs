//! Stage checkpoint/resume for the study pipeline.
//!
//! Each typed stage persists a deterministic snapshot of its data products
//! into a [`taxitrace_store::checkpoint`] container, keyed by a fingerprint
//! of the full [`StudyConfig`]. [`Study::run_with_checkpoints`] skips every
//! stage whose checkpoint exists under the current fingerprint, so calling
//! it again after a run was killed mid-pipeline restarts from the last
//! completed stage boundary and produces byte-identical results — stage
//! payloads are encoded with the same wire primitives whether a stage ran
//! live or was reloaded, and the remaining stages are pure functions of
//! those payloads.
//!
//! What is checkpointed is deliberately minimal: only *data products*
//! (sessions, segments, totals, funnel rows, transitions, the quarantine
//! ledger). The city and the weather model are pure functions of the config
//! and are regenerated on load, so checkpoints stay small and cannot drift
//! from the config that fingerprints them.

use std::fs;
use std::io;
use std::path::Path;

use bytes::{BufMut, Bytes, BytesMut};
use taxitrace_cleaning::{CleaningTotals, TripSegment};
use taxitrace_od::{FunnelRow, Transition};
use taxitrace_store::codec::{
    checked_taxi, decode_point, decode_session, encode_point, encode_session, put_str,
    take_i64, take_str, take_u32, take_u64, take_u8,
};
use taxitrace_store::{load_checkpoint, save_checkpoint, CheckpointFile, StoreError};
use taxitrace_timebase::Timestamp;
use taxitrace_traces::{FaultPlan, RawTrip, TaxiId, TripId};

use crate::config::StudyConfig;
use crate::error::Error;
use crate::experiment::{synth_city, Cleaned, Loaded, OdSelected, Simulated, Study};
use crate::quarantine::{Quarantine, QuarantineEntry, QuarantineReason};

/// FNV-1a fingerprint of the full study configuration (including the fault
/// policy and any chaos plan). A checkpoint is only reused when its stored
/// fingerprint matches the current config exactly.
pub fn config_fingerprint(config: &StudyConfig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{config:?}").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Study {
    /// Runs the pipeline with stage checkpoints under `dir`: every stage
    /// whose checkpoint exists (under the current config fingerprint) is
    /// loaded instead of recomputed, and every freshly executed stage is
    /// checkpointed before the next one starts. Calling it again after an
    /// interrupted run resumes from the last completed stage boundary.
    pub fn run_with_checkpoints(&self, dir: &Path) -> Result<crate::StudyOutput, Error> {
        run_checkpointed(self, dir)
    }
}

fn io_error(path: &Path, source: io::Error) -> Error {
    Error::Io { path: path.display().to_string(), source }
}

fn run_checkpointed(study: &Study, dir: &Path) -> Result<crate::StudyOutput, Error> {
    let config = &study.config;
    config.validate()?;
    fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
    let fingerprint = config_fingerprint(config);
    let chaos = config.chaos.clone();

    let sim_path = dir.join("simulate.ttck");
    let sim = match try_load(&sim_path, fingerprint)? {
        Some(ck) => load_simulated(study, &ck)?,
        None => {
            let sim = study.simulate()?;
            let sessions = encode_sessions(sim.store.sessions())?;
            let chaos_metrics = encode_chaos_counters(&sim.metrics)?;
            save_guarded(
                dir,
                &sim_path,
                "simulate",
                fingerprint,
                &[("sessions", &sessions), ("chaos_metrics", &chaos_metrics)],
                chaos.as_ref(),
            )?;
            kill_if_planned("simulate", chaos.as_ref())?;
            sim
        }
    };

    let clean_path = dir.join("clean.ttck");
    let cleaned = match try_load(&clean_path, fingerprint)? {
        Some(ck) => load_cleaned(sim, &ck)?,
        None => {
            let cleaned = sim.clean()?;
            let segments = encode_segments(&cleaned.segments)?;
            let totals = encode_totals(&cleaned.cleaning);
            let quarantine = encode_quarantine(&cleaned.quarantine)?;
            save_guarded(
                dir,
                &clean_path,
                "clean",
                fingerprint,
                &[("segments", &segments), ("totals", &totals), ("quarantine", &quarantine)],
                chaos.as_ref(),
            )?;
            kill_if_planned("clean", chaos.as_ref())?;
            cleaned
        }
    };

    let od_path = dir.join("od.ttck");
    let od = match try_load(&od_path, fingerprint)? {
        Some(ck) => load_od(cleaned, &ck)?,
        None => {
            let od = cleaned.analyze_od()?;
            let funnel = encode_funnel(&od.funnel_rows)?;
            let transitions = encode_transitions(&od.raw_transitions)?;
            let quarantine = encode_quarantine(&od.quarantine)?;
            save_guarded(
                dir,
                &od_path,
                "od",
                fingerprint,
                &[("funnel", &funnel), ("transitions", &transitions), ("quarantine", &quarantine)],
                chaos.as_ref(),
            )?;
            kill_if_planned("od", chaos.as_ref())?;
            od
        }
    };

    // The final stage produces the StudyOutput itself; a completed run
    // needs no checkpoint.
    od.match_fuse()
}

/// Loads a checkpoint if present and fingerprinted for this config. A
/// missing file, a stale fingerprint, or a torn/corrupt file all mean "no
/// checkpoint" — the stage is recomputed; only real I/O errors propagate.
fn try_load(path: &Path, fingerprint: u64) -> Result<Option<CheckpointFile>, Error> {
    if !path.exists() {
        return Ok(None);
    }
    match load_checkpoint(path) {
        Ok(ck) if ck.fingerprint == fingerprint => Ok(Some(ck)),
        Ok(_) => Ok(None),
        Err(StoreError::BadFormat(_)) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Saves a stage checkpoint, honouring a chaos plan's injected write
/// failure: the named stage's first save attempt errors (after dropping a
/// marker so the retry succeeds), exercising the caller's recovery path.
fn save_guarded(
    dir: &Path,
    path: &Path,
    stage: &str,
    fingerprint: u64,
    sections: &[(&str, &[u8])],
    chaos: Option<&FaultPlan>,
) -> Result<(), Error> {
    if let Some(plan) = chaos {
        if plan.fail_checkpoint_stage.as_deref() == Some(stage) {
            let marker = dir.join(format!(".chaos-ckfail-{stage}"));
            if !marker.exists() {
                fs::write(&marker, b"1").map_err(|e| io_error(&marker, e))?;
                return Err(Error::Store(StoreError::BadFormat(format!(
                    "chaos: injected checkpoint write failure for the {stage} stage"
                ))));
            }
        }
    }
    save_checkpoint(path, fingerprint, sections)?;
    Ok(())
}

fn kill_if_planned(stage: &str, chaos: Option<&FaultPlan>) -> Result<(), Error> {
    if let Some(plan) = chaos {
        if plan.kill_after_stage.as_deref() == Some(stage) {
            return Err(Error::InjectedKill { stage: stage.to_string() });
        }
    }
    Ok(())
}

fn section(ck: &CheckpointFile, stage: &str, name: &str) -> Result<Bytes, Error> {
    ck.section(name).cloned().ok_or_else(|| {
        Error::Store(StoreError::BadFormat(format!(
            "{stage} checkpoint is missing its {name:?} section"
        )))
    })
}

/// Stage 1 from a `simulate` checkpoint, through the same scaffolding as
/// every other source: the city is regenerated, the sessions are decoded.
fn load_simulated(study: &Study, ck: &CheckpointFile) -> Result<Simulated, Error> {
    study.load_with(|config, registry| {
        let city = synth_city(config, registry);
        let sessions = decode_sessions(&mut section(ck, "simulate", "sessions")?)?;
        // Chaos fault counters describe the checkpointed *data* (how many
        // sessions were injected with which fault), so a resumed run must
        // report them even though it never ran the injection itself.
        let chaos = decode_chaos_counters(&mut section(ck, "simulate", "chaos_metrics")?)?;
        for (name, value) in chaos {
            registry.counter(&name).add(value);
        }
        Ok(Loaded { city, sessions, losses: None })
    })
}

fn load_cleaned(sim: Simulated, ck: &CheckpointFile) -> Result<Cleaned, Error> {
    let Simulated { config, city, weather, store, obs, .. } = sim;
    let segments = decode_segments(&mut section(ck, "clean", "segments")?)?;
    let cleaning = decode_totals(&mut section(ck, "clean", "totals")?)?;
    let quarantine = decode_quarantine(&mut section(ck, "clean", "quarantine")?)?;
    cleaning.record_metrics(&obs.registry);
    quarantine.record_stage_metrics(&obs.registry, "clean", store.sessions().len());
    let metrics = obs.registry.snapshot();
    Ok(Cleaned { config, city, weather, store, segments, cleaning, quarantine, metrics, obs })
}

fn load_od(cleaned: Cleaned, ck: &CheckpointFile) -> Result<OdSelected, Error> {
    let Cleaned { config, city, weather, store, segments, cleaning, obs, .. } = cleaned;
    let funnel_rows = decode_funnel(&mut section(ck, "od", "funnel")?)?;
    let raw_transitions = decode_transitions(&mut section(ck, "od", "transitions")?)?;
    // The od checkpoint stores the *cumulative* ledger (clean + od), so it
    // replaces the one carried in from the clean stage.
    let quarantine = decode_quarantine(&mut section(ck, "od", "quarantine")?)?;
    taxitrace_od::record_funnel_metrics(&funnel_rows, &obs.registry);
    let od_quarantined = quarantine.of_stage("od").count();
    quarantine.record_stage_metrics(
        &obs.registry,
        "od",
        raw_transitions.len() + od_quarantined,
    );
    let metrics = obs.registry.snapshot();
    Ok(OdSelected {
        config,
        city,
        weather,
        store,
        segments,
        cleaning,
        funnel_rows,
        raw_transitions,
        quarantine,
        metrics,
        obs,
    })
}

// ---- stage payload codecs (store wire primitives; little-endian) --------

fn encode_sessions(sessions: &[RawTrip]) -> Result<Vec<u8>, StoreError> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(sessions.len() as u64);
    for s in sessions {
        encode_session(&mut buf, s)?;
    }
    Ok(buf.as_ref().to_vec())
}

fn decode_sessions(b: &mut Bytes) -> Result<Vec<RawTrip>, StoreError> {
    let n = take_u64(b)? as usize;
    let mut sessions = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        sessions.push(decode_session(b)?);
    }
    Ok(sessions)
}

/// The `chaos.*` counters of a live simulate stage (empty without a
/// fault-injecting plan), encoded name-value.
fn encode_chaos_counters(
    metrics: &taxitrace_obs::MetricsSnapshot,
) -> Result<Vec<u8>, StoreError> {
    let chaos: Vec<&(String, u64)> =
        metrics.counters.iter().filter(|(name, _)| name.starts_with("chaos.")).collect();
    let mut buf = BytesMut::new();
    buf.put_u64_le(chaos.len() as u64);
    for (name, value) in chaos {
        put_str(&mut buf, name)?;
        buf.put_u64_le(*value);
    }
    Ok(buf.as_ref().to_vec())
}

fn decode_chaos_counters(b: &mut Bytes) -> Result<Vec<(String, u64)>, StoreError> {
    let n = take_u64(b)? as usize;
    let mut counters = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = take_str(b)?;
        let value = take_u64(b)?;
        counters.push((name, value));
    }
    Ok(counters)
}

/// Encodes cleaned segments for a checkpoint section. Public because the
/// stream-cursor checkpoint persists per-session segments with the same
/// wire format.
pub fn encode_segments(segments: &[TripSegment]) -> Result<Vec<u8>, StoreError> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(segments.len() as u64);
    for seg in segments {
        buf.put_u64_le(seg.trip_id.0);
        buf.put_u8(checked_taxi(seg.taxi)?);
        buf.put_i64_le(seg.start_time.secs());
        let count = u32::try_from(seg.points.len())
            .map_err(|_| StoreError::BadFormat("segment point count exceeds u32".into()))?;
        buf.put_u32_le(count);
        for p in &seg.points {
            encode_point(&mut buf, p)?;
        }
    }
    Ok(buf.as_ref().to_vec())
}

/// Inverse of [`encode_segments`].
pub fn decode_segments(b: &mut Bytes) -> Result<Vec<TripSegment>, StoreError> {
    let n = take_u64(b)? as usize;
    let mut segments = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let trip_id = TripId(take_u64(b)?);
        let taxi = TaxiId(take_u8(b)?.into());
        let start_time = Timestamp::from_secs(take_i64(b)?);
        let np = take_u32(b)? as usize;
        let mut points = Vec::with_capacity(np.min(1 << 20));
        for _ in 0..np {
            points.push(decode_point(b, trip_id, taxi)?);
        }
        segments.push(TripSegment { trip_id, taxi, start_time, points });
    }
    Ok(segments)
}

/// Encodes cleaning totals for a checkpoint section (shared with the
/// stream-cursor checkpoint).
pub fn encode_totals(totals: &CleaningTotals) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(totals.sessions as u64);
    buf.put_u64_le(totals.raw_points as u64);
    buf.put_u64_le(totals.sessions_order_repaired as u64);
    for fires in totals.rule_fires {
        buf.put_u64_le(fires as u64);
    }
    buf.put_u64_le(totals.segments_kept as u64);
    buf.put_u64_le(totals.segments_too_few_points as u64);
    buf.put_u64_le(totals.segments_too_long as u64);
    buf.as_ref().to_vec()
}

/// Inverse of [`encode_totals`].
pub fn decode_totals(b: &mut Bytes) -> Result<CleaningTotals, StoreError> {
    let mut totals = CleaningTotals {
        sessions: take_u64(b)? as usize,
        raw_points: take_u64(b)? as usize,
        sessions_order_repaired: take_u64(b)? as usize,
        ..CleaningTotals::default()
    };
    for fires in totals.rule_fires.iter_mut() {
        *fires = take_u64(b)? as usize;
    }
    totals.segments_kept = take_u64(b)? as usize;
    totals.segments_too_few_points = take_u64(b)? as usize;
    totals.segments_too_long = take_u64(b)? as usize;
    Ok(totals)
}

fn encode_quarantine(quarantine: &Quarantine) -> Result<Vec<u8>, StoreError> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(quarantine.len() as u64);
    for entry in quarantine.entries() {
        put_str(&mut buf, &entry.stage)?;
        buf.put_u64_le(entry.record);
        buf.put_u8(entry.reason.wire_tag());
        put_str(&mut buf, &entry.detail)?;
    }
    Ok(buf.as_ref().to_vec())
}

fn decode_quarantine(b: &mut Bytes) -> Result<Quarantine, StoreError> {
    let n = take_u64(b)? as usize;
    let mut quarantine = Quarantine::default();
    for _ in 0..n {
        let stage = take_str(b)?;
        let record = take_u64(b)?;
        let tag = take_u8(b)?;
        let reason = QuarantineReason::from_wire_tag(tag).ok_or_else(|| {
            StoreError::BadFormat(format!("unknown quarantine reason tag {tag}"))
        })?;
        let detail = take_str(b)?;
        quarantine.push(QuarantineEntry { stage, record, reason, detail });
    }
    Ok(quarantine)
}

fn encode_funnel(rows: &[FunnelRow]) -> Result<Vec<u8>, StoreError> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(rows.len() as u64);
    for row in rows {
        buf.put_u8(checked_taxi(TaxiId(row.taxi))?);
        buf.put_u64_le(row.segments_total as u64);
        buf.put_u64_le(row.any_crossing as u64);
        buf.put_u64_le(row.filtered_cleaned as u64);
        buf.put_u64_le(row.transitions_total as u64);
        buf.put_u64_le(row.within_center as u64);
        buf.put_u64_le(row.post_filtered as u64);
    }
    Ok(buf.as_ref().to_vec())
}

fn decode_funnel(b: &mut Bytes) -> Result<Vec<FunnelRow>, StoreError> {
    let n = take_u64(b)? as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        rows.push(FunnelRow {
            taxi: take_u8(b)?.into(),
            segments_total: take_u64(b)? as usize,
            any_crossing: take_u64(b)? as usize,
            filtered_cleaned: take_u64(b)? as usize,
            transitions_total: take_u64(b)? as usize,
            within_center: take_u64(b)? as usize,
            post_filtered: take_u64(b)? as usize,
        });
    }
    Ok(rows)
}

fn encode_transitions(transitions: &[Transition]) -> Result<Vec<u8>, StoreError> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(transitions.len() as u64);
    for t in transitions {
        buf.put_u64_le(t.segment_index as u64);
        buf.put_u8(checked_taxi(t.taxi)?);
        put_str(&mut buf, &t.from)?;
        put_str(&mut buf, &t.to)?;
        buf.put_u64_le(t.origin_point as u64);
        buf.put_u64_le(t.destination_point as u64);
        let flags = (t.within_center as u8) | ((t.post_filtered as u8) << 1);
        buf.put_u8(flags);
    }
    Ok(buf.as_ref().to_vec())
}

fn decode_transitions(b: &mut Bytes) -> Result<Vec<Transition>, StoreError> {
    let n = take_u64(b)? as usize;
    let mut transitions = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let segment_index = take_u64(b)? as usize;
        let taxi = TaxiId(take_u8(b)?.into());
        let from = take_str(b)?;
        let to = take_str(b)?;
        let origin_point = take_u64(b)? as usize;
        let destination_point = take_u64(b)? as usize;
        let flags = take_u8(b)?;
        transitions.push(Transition {
            segment_index,
            taxi,
            from,
            to,
            origin_point,
            destination_point,
            within_center: flags & 1 != 0,
            post_filtered: flags & 2 != 0,
        });
    }
    Ok(transitions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_every_config_field() {
        let a = config_fingerprint(&StudyConfig::quick(7));
        let b = config_fingerprint(&StudyConfig::quick(7));
        assert_eq!(a, b);
        assert_ne!(a, config_fingerprint(&StudyConfig::quick(8)));
        let mut with_chaos = StudyConfig::quick(7);
        with_chaos.chaos = Some(FaultPlan { p_teleport: 0.1, ..FaultPlan::default() });
        assert_ne!(a, config_fingerprint(&with_chaos));
        let mut tighter = StudyConfig::quick(7);
        tighter.fault.error_budget = 0.01;
        assert_ne!(a, config_fingerprint(&tighter));
    }

    #[test]
    fn stage_payload_codecs_round_trip() {
        let totals = CleaningTotals {
            sessions: 10,
            raw_points: 1000,
            sessions_order_repaired: 3,
            rule_fires: [1, 2, 3, 4, 5],
            segments_kept: 40,
            segments_too_few_points: 2,
            segments_too_long: 1,
        };
        let mut b = Bytes::from(encode_totals(&totals));
        assert_eq!(decode_totals(&mut b).unwrap(), totals);

        let mut q = Quarantine::default();
        q.push(QuarantineEntry {
            stage: "clean".into(),
            record: 42,
            reason: QuarantineReason::Dropout,
            detail: "900 s silent".into(),
        });
        q.push(QuarantineEntry {
            stage: "match_fuse".into(),
            record: 7,
            reason: QuarantineReason::UnmatchedGap,
            detail: "budget".into(),
        });
        let mut b = Bytes::from(encode_quarantine(&q).unwrap());
        assert_eq!(decode_quarantine(&mut b).unwrap(), q);

        let rows = vec![FunnelRow {
            taxi: 3,
            segments_total: 100,
            any_crossing: 80,
            filtered_cleaned: 60,
            transitions_total: 50,
            within_center: 30,
            post_filtered: 20,
        }];
        let mut b = Bytes::from(encode_funnel(&rows).unwrap());
        assert_eq!(decode_funnel(&mut b).unwrap(), rows);

        let transitions = vec![Transition {
            segment_index: 5,
            taxi: TaxiId(2),
            from: "T".into(),
            to: "S".into(),
            origin_point: 3,
            destination_point: 17,
            within_center: true,
            post_filtered: false,
        }];
        let mut b = Bytes::from(encode_transitions(&transitions).unwrap());
        assert_eq!(decode_transitions(&mut b).unwrap(), transitions);
    }

    #[test]
    fn corrupt_quarantine_tag_is_a_typed_error() {
        let mut q = Quarantine::default();
        q.push(QuarantineEntry {
            stage: "clean".into(),
            record: 1,
            reason: QuarantineReason::ClockSkew,
            detail: "x".into(),
        });
        let mut raw = encode_quarantine(&q).unwrap();
        // The tag byte sits after the count (8), stage ("clean": 2 + 5)
        // and record (8).
        raw[8 + 7 + 8] = 200;
        let mut b = Bytes::from(raw);
        assert!(matches!(decode_quarantine(&mut b), Err(StoreError::BadFormat(_))));
    }
}
