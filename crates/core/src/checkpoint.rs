//! Checkpoint/resume for the study pipeline.
//!
//! Only stage 1's product is checkpointed: the sessions (plus the chaos
//! counters that describe them) go into one `simulate.ttck`
//! [`taxitrace_store::checkpoint`] container, keyed by a fingerprint of
//! the full [`StudyConfig`]. Everything after it — cleaning, O-D
//! selection, matching and fusion — is a pure function of those sessions
//! and the config, so [`Study::run_with_checkpoints`] recomputes it on
//! every call. A run killed after `simulate` therefore resumes
//! byte-identically, and because every derived product is rebuilt from
//! the stored sessions, the study fingerprint covers them on resume too.
//!
//! The city and the weather model are pure functions of the config and
//! are regenerated on load, so the checkpoint stays small and cannot
//! drift from the config that fingerprints it.

use std::fs;
use std::io;
use std::path::Path;

use bytes::{BufMut, BytesMut};
use taxitrace_store::codec::{decode_session, encode_session, put_str, take_str, take_u64};
use taxitrace_store::{load_checkpoint, save_checkpoint, CheckpointFile, StoreError};
use taxitrace_traces::RawTrip;

use crate::config::StudyConfig;
use crate::error::Error;
use crate::experiment::{synth_city, Loaded, Simulated, Study};

/// FNV-1a fingerprint of the full study configuration (including the fault
/// policy and any chaos plan). A checkpoint is only reused when its stored
/// fingerprint matches the current config exactly.
pub fn config_fingerprint(config: &StudyConfig) -> u64 {
    crate::fnv1a(format!("{config:?}").as_bytes())
}

impl Study {
    /// Runs the pipeline with a `simulate` checkpoint under `dir`: when
    /// `simulate.ttck` exists under the current config fingerprint its
    /// sessions are loaded instead of re-simulated; otherwise stage 1 runs
    /// and is checkpointed before the rest of the pipeline, which always
    /// recomputes. Calling it again after an interrupted run resumes from
    /// the stored sessions.
    pub fn run_with_checkpoints(&self, dir: &Path) -> Result<crate::StudyOutput, Error> {
        run_checkpointed(self, dir)
    }
}

/// The one checkpointed stage. [`StudyConfig::validate`] rejects a chaos
/// plan that kills or fails the checkpoint of any other.
pub(crate) const CHECKPOINTED_STAGE: &str = "simulate";

fn io_error(path: &Path, source: io::Error) -> Error {
    Error::Io { path: path.display().to_string(), source }
}

fn run_checkpointed(study: &Study, dir: &Path) -> Result<crate::StudyOutput, Error> {
    let config = &study.config;
    config.validate()?;
    fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
    let fingerprint = config_fingerprint(config);
    let planned = |stage: &Option<String>| stage.as_deref() == Some(CHECKPOINTED_STAGE);
    let plan = config.chaos.as_ref();

    let path = dir.join("simulate.ttck");
    let sim = match try_load(&path, fingerprint)? {
        Some(ck) => load_simulated(study, &ck)?,
        None => {
            let sim = study.simulate()?;
            if plan.is_some_and(|p| planned(&p.fail_checkpoint_stage)) {
                fail_first_write(dir)?;
            }
            let sessions = encode_sessions(sim.store.sessions())?;
            let chaos_metrics = encode_chaos_counters(&sim.metrics)?;
            save_checkpoint(
                &path,
                fingerprint,
                &[("sessions", &sessions), ("chaos_metrics", &chaos_metrics)],
            )?;
            if plan.is_some_and(|p| planned(&p.kill_after_stage)) {
                return Err(Error::InjectedKill {
                    stage: CHECKPOINTED_STAGE.into(),
                });
            }
            sim
        }
    };

    // Every later stage is recomputed from the sessions.
    sim.clean()?.analyze_od()?.match_fuse()
}

/// Loads the checkpoint if present and fingerprinted for this config. A
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

/// A chaos plan's injected checkpoint-write failure: the first save
/// attempt errors (after dropping a marker so the retry succeeds),
/// exercising the caller's recovery path.
fn fail_first_write(dir: &Path) -> Result<(), Error> {
    let marker = dir.join(format!(".chaos-ckfail-{CHECKPOINTED_STAGE}"));
    if marker.exists() {
        return Ok(());
    }
    fs::write(&marker, b"1").map_err(|e| io_error(&marker, e))?;
    Err(Error::Store(StoreError::BadFormat(format!(
        "chaos: injected checkpoint write failure for the {CHECKPOINTED_STAGE} stage"
    ))))
}

fn section<'a>(ck: &'a CheckpointFile, name: &str) -> Result<&'a [u8], Error> {
    ck.section(name).ok_or_else(|| {
        Error::Store(StoreError::BadFormat(format!(
            "{CHECKPOINTED_STAGE} checkpoint is missing its {name:?} section"
        )))
    })
}

/// Stage 1 from a `simulate` checkpoint, through the same scaffolding as
/// every other source: the city is regenerated, the sessions are decoded.
fn load_simulated(study: &Study, ck: &CheckpointFile) -> Result<Simulated, Error> {
    study.load_with(|config, registry| {
        let city = synth_city(config, registry);
        let sessions = decode_sessions(&mut section(ck, "sessions")?)?;
        // Chaos fault counters describe the checkpointed *data* (how many
        // sessions were injected with which fault), so a resumed run must
        // report them even though it never ran the injection itself.
        let chaos = decode_chaos_counters(&mut section(ck, "chaos_metrics")?)?;
        for (name, value) in chaos {
            registry.counter(&name).add(value);
        }
        Ok(Loaded { city, sessions, losses: None })
    })
}

// ---- payload codecs (store wire primitives; little-endian) --------------

fn encode_sessions(sessions: &[RawTrip]) -> Result<BytesMut, StoreError> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(sessions.len() as u64);
    for s in sessions {
        encode_session(&mut buf, s)?;
    }
    Ok(buf)
}

fn decode_sessions(b: &mut &[u8]) -> Result<Vec<RawTrip>, StoreError> {
    let n = take_u64(b)? as usize;
    let mut sessions = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        sessions.push(decode_session(b)?);
    }
    Ok(sessions)
}

/// The `chaos.*` counters of a live simulate stage (empty without a
/// fault-injecting plan), encoded name-value.
fn encode_chaos_counters(metrics: &taxitrace_obs::MetricsSnapshot) -> Result<BytesMut, StoreError> {
    let chaos: Vec<&(String, u64)> =
        metrics.counters.iter().filter(|(name, _)| name.starts_with("chaos.")).collect();
    let mut buf = BytesMut::new();
    buf.put_u64_le(chaos.len() as u64);
    for (name, value) in chaos {
        put_str(&mut buf, name)?;
        buf.put_u64_le(*value);
    }
    Ok(buf)
}

fn decode_chaos_counters(b: &mut &[u8]) -> Result<Vec<(String, u64)>, StoreError> {
    let n = take_u64(b)? as usize;
    let mut counters = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = take_str(b)?;
        let value = take_u64(b)?;
        counters.push((name, value));
    }
    Ok(counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_traces::FaultPlan;

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

    fn two_sessions() -> Vec<RawTrip> {
        use taxitrace_geo::{GeoPoint, Point};
        use taxitrace_roadnet::{ElementId, NodeId};
        use taxitrace_timebase::{Duration, Timestamp};
        use taxitrace_traces::{CustomerTripTruth, PointTruth, RoutePoint, TaxiId, TripId};
        (0..2u64)
            .map(|i| {
                let point = |seq: u32| RoutePoint {
                    point_id: u64::from(seq),
                    trip_id: TripId(i),
                    taxi: TaxiId(2),
                    geo: GeoPoint::new(25.4, 65.0),
                    pos: Point::new(f64::from(seq), 1.0),
                    timestamp: Timestamp::from_secs(100 + i64::from(seq)),
                    speed_kmh: 30.0,
                    heading_deg: 45.0,
                    fuel_ml: 1.5,
                    truth: PointTruth { seq, element: (seq == 0).then_some(ElementId(9)) },
                };
                RawTrip {
                    id: TripId(i),
                    taxi: TaxiId(2),
                    start_time: Timestamp::from_secs(100),
                    end_time: Timestamp::from_secs(101),
                    points: vec![point(0), point(1)],
                    total_time: Duration::from_secs(1),
                    total_distance_m: 1.0,
                    total_fuel_ml: 1.5,
                    truth_trips: vec![CustomerTripTruth {
                        start_seq: 0,
                        end_seq: 1,
                        origin: NodeId(1),
                        destination: NodeId(2),
                        elements: vec![ElementId(9)],
                        od_pair: Some(("T".into(), "S".into())),
                    }],
                }
            })
            .collect()
    }

    #[test]
    fn every_truncated_section_prefix_is_an_error() {
        let sessions = two_sessions();
        let encoded = encode_sessions(&sessions).unwrap();
        assert_eq!(decode_sessions(&mut &encoded[..]).unwrap(), sessions);
        for cut in 0..encoded.len() {
            assert!(decode_sessions(&mut &encoded[..cut]).is_err(), "sessions cut at {cut}");
        }

        let registry = taxitrace_obs::Registry::new();
        registry.counter("chaos.teleport").add(3);
        registry.counter("sim.steps").add(5);
        let encoded = encode_chaos_counters(&registry.snapshot()).unwrap();
        let decoded = decode_chaos_counters(&mut &encoded[..]).unwrap();
        assert_eq!(decoded, [("chaos.teleport".to_string(), 3)]);
        for cut in 0..encoded.len() {
            let result = decode_chaos_counters(&mut &encoded[..cut]);
            assert!(result.is_err(), "chaos counters cut at {cut}");
        }
    }
}
