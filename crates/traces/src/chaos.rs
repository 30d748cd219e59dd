//! Injectable fault plans: the chaos harness behind `repro --chaos`.
//!
//! [`crate::corruption`] models the *everyday* raw-data errors the paper's
//! cleaning stage repairs (latency reorder, clock glitch, duplicate
//! upload). A [`FaultPlan`] injects the *unrepairable* damage the
//! quarantine layer must survive — trace-level faults the anomaly
//! detectors should catch (teleports, flattened clocks, stuck sensors,
//! moving dropouts) plus stage-level faults exercising task isolation and
//! checkpoint/resume (injected task panics, a mid-run kill after a named
//! stage, an injected checkpoint-store failure).
//!
//! Everything is seeded and deterministic: the same plan applied to the
//! same fleet yields byte-identical faulted sessions, so chaos runs are as
//! reproducible as clean ones.

use serde::{Deserialize, Serialize};
use taxitrace_timebase::Duration;

use crate::model::RoutePoint;
use crate::rng::Rng;

/// Domain-separation constant for the chaos RNG stream (distinct from the
/// simulator's and weather's seed derivations).
const CHAOS_SEED_SALT: u64 = 0xC4A0_5F41;

/// Domain-separation constant for the on-disk corruption RNG stream
/// (distinct from the trace-fault stream so adding disk faults to a plan
/// never reshuffles its trace faults).
const DISK_SEED_SALT: u64 = 0xD15C_C0DE;

/// Domain-separation constant for the streaming-ingest fault stream
/// (distinct from the trace and disk streams so adding stream faults to a
/// plan never reshuffles the others).
const STREAM_SEED_SALT: u64 = 0x57E4_FEED;

/// Byte extent of one framed record inside a serialized container image,
/// as reported by the storage layer: `frame_start..end` spans the whole
/// record including its length/CRC framing, `payload_start..end` only the
/// payload bytes. The on-disk injectors aim bit flips at payloads (so a
/// flip damages exactly one record, not the framing that delimits its
/// neighbours) and duplicate whole frames (so a duplicated record parses
/// as a record, like a double upload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Start of the record frame (the length word).
    pub frame_start: usize,
    /// Start of the payload, after the framing.
    pub payload_start: usize,
    /// End of the record, exclusive.
    pub end: usize,
}

/// Which trace-level fault a session received.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedFault {
    /// A run of points displaced far off-route (GPS teleport).
    Teleport,
    /// A run of timestamps thrown far backwards; the §IV-B monotonic
    /// clamp flattens them onto one value (clock skew).
    ClockFreeze,
    /// A run frozen at one position while speeds keep reporting driving.
    StuckSensor,
    /// A silent window removed mid-drive and the remaining tail delayed —
    /// the vehicle covers kilometres while the device says nothing.
    Dropout,
}

impl InjectedFault {
    /// Stable lowercase label (used in metrics names).
    pub fn label(self) -> &'static str {
        match self {
            InjectedFault::Teleport => "teleport",
            InjectedFault::ClockFreeze => "clock_freeze",
            InjectedFault::StuckSensor => "stuck_sensor",
            InjectedFault::Dropout => "dropout",
        }
    }
}

/// A deterministic, seeded chaos plan.
///
/// Probabilities are per session and mutually exclusive (at most one
/// trace-level fault class per session, like [`crate::corruption`]).
/// Stage-level fields are interpreted by the study pipeline, not here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the chaos RNG stream (forked per session by trip id).
    pub seed: u64,
    /// Probability a session gets a teleport fault.
    pub p_teleport: f64,
    /// Teleport displacement, metres.
    pub teleport_m: f64,
    /// Points displaced per teleport.
    pub teleport_points: usize,
    /// Probability a session gets a clock-freeze fault.
    pub p_clock_freeze: f64,
    /// Timestamps thrown backwards per clock freeze.
    pub freeze_points: usize,
    /// Probability a session gets a stuck-sensor fault.
    pub p_stuck: f64,
    /// Points frozen per stuck-sensor fault.
    pub stuck_points: usize,
    /// Probability a session gets a dropout fault.
    pub p_dropout: f64,
    /// Extra silence added across the dropout window, seconds.
    pub dropout_gap_s: i64,
    /// Stage-level: panic the clean task for every session whose trip id
    /// is divisible by this (0 = off). Exercises executor task isolation.
    pub task_panic_one_in: u64,
    /// Stage-level: after completing (and checkpointing) the named stage,
    /// the study returns an injected error — a simulated kill that a
    /// second `Study::run_with_checkpoints` call must recover from. Only
    /// `simulate` is checkpointed, so `StudyConfig::validate` rejects any
    /// other stage.
    pub kill_after_stage: Option<String>,
    /// Stage-level: the named stage's first checkpoint write fails with
    /// an injected store error (once; a retry succeeds). As for
    /// `kill_after_stage`, only `simulate` is accepted.
    pub fail_checkpoint_stage: Option<String>,
    /// Override of `MatchConfig::gap_fill_max_expansions` (to force the
    /// search-budget fallback on a normal-sized run).
    pub gap_fill_max_expansions: Option<u64>,
    /// Override of the stage error budget (max quarantined fraction).
    pub error_budget: Option<f64>,
    /// Override of the executor's per-task attempt bound.
    pub max_task_attempts: Option<u32>,
    /// On-disk: seeded single-bit flips applied to a container image by
    /// [`Self::corrupt_file`] (0 = off).
    pub disk_bit_flips: u32,
    /// On-disk: bytes chopped off the container tail (0 = off).
    pub disk_truncate_bytes: u64,
    /// On-disk: duplicate one seeded record frame in place (a double
    /// upload at the storage layer).
    pub disk_duplicate_record: bool,
    /// On-disk: overwrite the container magic with seeded garbage.
    pub disk_garbage_header: bool,
    /// Streaming: kill the ingest after consuming this many feed records
    /// (0 = off). The stream writes its cursor checkpoint at the kill
    /// point, so a resumed run must reproduce the uninterrupted
    /// fingerprint byte for byte.
    pub stream_kill_after_records: u64,
    /// Streaming: delay roughly one in this many feed records far past
    /// the watermark's lateness bound (0 = off) — a late-data flood that
    /// lands in the quarantine ledger, never in a closed trip.
    pub stream_late_one_in: u64,
    /// Streaming: extra arrival delay applied to flooded records, seconds.
    pub stream_late_delay_s: i64,
    /// Streaming: collapse roughly one in this many records' arrival time
    /// onto a coarse boundary (0 = off), so whole groups of records land
    /// in the same instant — burst arrival.
    pub stream_burst_one_in: u64,
    /// Streaming: stall the feeder thread before roughly one in this many
    /// records (0 = off). Exercises queue drain and backpressure without
    /// ever changing the output.
    pub stream_stall_one_in: u64,
    /// Streaming: garble roughly one in this many records' position to a
    /// non-finite coordinate (0 = off); the ingest must quarantine these
    /// as malformed instead of buffering them into a trip.
    pub stream_garble_one_in: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            p_teleport: 0.0,
            teleport_m: 5_000.0,
            teleport_points: 6,
            p_clock_freeze: 0.0,
            freeze_points: 120,
            p_stuck: 0.0,
            stuck_points: 16,
            p_dropout: 0.0,
            dropout_gap_s: 1_200,
            task_panic_one_in: 0,
            kill_after_stage: None,
            fail_checkpoint_stage: None,
            gap_fill_max_expansions: None,
            error_budget: None,
            max_task_attempts: None,
            disk_bit_flips: 0,
            disk_truncate_bytes: 0,
            disk_duplicate_record: false,
            disk_garbage_header: false,
            stream_kill_after_records: 0,
            stream_late_one_in: 0,
            stream_late_delay_s: 86_400,
            stream_burst_one_in: 0,
            stream_stall_one_in: 0,
            stream_garble_one_in: 0,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects any trace-level faults.
    pub fn has_trace_faults(&self) -> bool {
        self.p_teleport > 0.0
            || self.p_clock_freeze > 0.0
            || self.p_stuck > 0.0
            || self.p_dropout > 0.0
    }

    /// Whether the plan injects any on-disk corruption.
    pub fn has_disk_faults(&self) -> bool {
        self.disk_bit_flips > 0
            || self.disk_truncate_bytes > 0
            || self.disk_duplicate_record
            || self.disk_garbage_header
    }

    /// Whether the plan injects any streaming-ingest faults.
    pub fn has_stream_faults(&self) -> bool {
        self.stream_kill_after_records > 0
            || self.stream_late_one_in > 0
            || self.stream_burst_one_in > 0
            || self.stream_stall_one_in > 0
            || self.stream_garble_one_in > 0
    }

    /// The chaos RNG stream for one feed record, a pure function of the
    /// plan seed and the record's position in the arrival-ordered feed
    /// (so a kill/resume replays identical faults).
    pub fn stream_rng(&self, record_index: u64) -> Rng {
        Rng::new(self.seed ^ STREAM_SEED_SALT).fork(record_index.wrapping_add(1))
    }

    /// Applies the plan's on-disk faults to a serialized container image,
    /// deterministically: the same plan, `salt`, image, and spans always
    /// produce the same corrupted bytes. `records` comes from the storage
    /// layer (`taxitrace-store`'s `codec::record_spans`); with an empty
    /// span list, bit flips land anywhere in the image instead of being
    /// aimed at record payloads, and duplication is skipped. Returns the
    /// label of each fault actually applied, in application order.
    pub fn corrupt_file(
        &self,
        salt: u64,
        bytes: &mut Vec<u8>,
        records: &[RecordSpan],
    ) -> Vec<&'static str> {
        let mut applied = Vec::new();
        if !self.has_disk_faults() || bytes.is_empty() {
            return applied;
        }
        let mut rng = Rng::new(self.seed ^ DISK_SEED_SALT).fork(salt.wrapping_add(1));
        // Bit flips first, aimed inside payload spans (offsets stay valid
        // because flips do not move bytes).
        let payloads: Vec<&RecordSpan> =
            records.iter().filter(|r| r.end > r.payload_start).collect();
        for _ in 0..self.disk_bit_flips {
            let offset = if payloads.is_empty() {
                rng.below(bytes.len())
            } else {
                let r = payloads[rng.below(payloads.len())];
                r.payload_start + rng.below(r.end - r.payload_start)
            };
            bytes[offset] ^= 1 << rng.below(8);
        }
        applied.extend(std::iter::repeat_n("disk_bit_flip", self.disk_bit_flips as usize));
        // Duplicate one whole frame in place (shifts everything after the
        // insertion point, hence after the flips).
        if self.disk_duplicate_record && !records.is_empty() {
            let r = &records[rng.below(records.len())];
            let copy = bytes[r.frame_start..r.end].to_vec();
            let tail = bytes.split_off(r.end);
            bytes.extend_from_slice(&copy);
            bytes.extend_from_slice(&tail);
            applied.push("disk_duplicate_record");
        }
        if self.disk_truncate_bytes > 0 {
            let cut = usize::try_from(self.disk_truncate_bytes)
                .unwrap_or(usize::MAX)
                .min(bytes.len());
            bytes.truncate(bytes.len() - cut);
            applied.push("disk_truncate");
        }
        if self.disk_garbage_header {
            for b in bytes.iter_mut().take(8) {
                *b = rng.below(256) as u8;
            }
            applied.push("disk_garbage_header");
        }
        applied
    }

    /// The chaos RNG stream for one session, a pure function of the plan
    /// seed and the trip id.
    pub fn session_rng(&self, trip_id: u64) -> Rng {
        Rng::new(self.seed ^ CHAOS_SEED_SALT).fork(trip_id.wrapping_add(1))
    }

    /// Applies at most one trace-level fault to a session's points (in
    /// arrival order), returning what was injected. Deterministic given
    /// the plan and the trip id.
    pub fn apply_session(
        &self,
        trip_id: u64,
        points: &mut Vec<RoutePoint>,
    ) -> Option<InjectedFault> {
        if !self.has_trace_faults() || points.len() < 24 {
            return None;
        }
        let mut rng = self.session_rng(trip_id);
        let draw = rng.f64();
        let mut threshold = self.p_teleport;
        if draw < threshold {
            return self.teleport(&mut rng, points);
        }
        threshold += self.p_clock_freeze;
        if draw < threshold {
            return self.clock_freeze(&mut rng, points);
        }
        threshold += self.p_stuck;
        if draw < threshold {
            return self.stuck(&mut rng, points);
        }
        threshold += self.p_dropout;
        if draw < threshold {
            return self.dropout(&mut rng, points);
        }
        None
    }

    fn fault_run(&self, rng: &mut Rng, n: usize, len: usize) -> std::ops::Range<usize> {
        // An interior run, never touching the endpoints so the fault sits
        // inside driving, not at a session boundary.
        let len = len.clamp(1, n - 2);
        let start = 1 + rng.below(n - len - 1);
        start..start + len
    }

    fn teleport(&self, rng: &mut Rng, points: &mut [RoutePoint]) -> Option<InjectedFault> {
        let run = self.fault_run(rng, points.len(), self.teleport_points);
        let angle = rng.range(0.0, std::f64::consts::TAU);
        let (dx, dy) = (self.teleport_m * angle.cos(), self.teleport_m * angle.sin());
        for p in &mut points[run] {
            p.pos = taxitrace_geo::Point::new(p.pos.x + dx, p.pos.y + dy);
        }
        Some(InjectedFault::Teleport)
    }

    fn clock_freeze(&self, rng: &mut Rng, points: &mut [RoutePoint]) -> Option<InjectedFault> {
        let run = self.fault_run(rng, points.len(), self.freeze_points);
        // Far enough back that the order repair's monotonic clamp flattens
        // the whole run onto its predecessor's timestamp.
        let back = Duration::from_hours(2);
        for p in &mut points[run] {
            p.timestamp = p.timestamp - back;
        }
        Some(InjectedFault::ClockFreeze)
    }

    fn stuck(&self, rng: &mut Rng, points: &mut [RoutePoint]) -> Option<InjectedFault> {
        let run = self.fault_run(rng, points.len(), self.stuck_points);
        let anchor = points[run.start].pos;
        for p in &mut points[run] {
            p.pos = anchor;
            // The unit keeps claiming it drives.
            p.speed_kmh = p.speed_kmh.max(30.0);
        }
        Some(InjectedFault::StuckSensor)
    }

    fn dropout(&self, rng: &mut Rng, points: &mut Vec<RoutePoint>) -> Option<InjectedFault> {
        // Remove a window spanning at least 3 km of path, then delay the
        // tail: a device silent for `dropout_gap_s` extra seconds while
        // the vehicle keeps covering ground.
        let n = points.len();
        let start = 1 + rng.below(n / 2);
        let mut end = start + 1;
        let mut span_m = 0.0;
        while end < n - 1 && span_m < 3_200.0 {
            span_m += points[end - 1].pos.distance(points[end].pos);
            end += 1;
        }
        if span_m < 3_200.0 {
            // Session too short to fake a far-moving dropout; leave it.
            return None;
        }
        points.drain(start + 1..end - 1);
        let delay = Duration::from_secs(self.dropout_gap_s);
        for p in &mut points[start + 1..] {
            p.timestamp += delay;
        }
        for (i, p) in points.iter_mut().enumerate() {
            p.point_id = i as u64;
        }
        Some(InjectedFault::Dropout)
    }

    /// Parses the `key value` plan format (one pair per line; blank lines
    /// and `#` comments ignored). Unknown keys are errors so a typo can
    /// never silently disable a fault.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("line {}: expected `key value`", lineno + 1))?;
            let value = value.trim();
            let bad = |what: &str| format!("line {}: bad {what} value {value:?}", lineno + 1);
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad("u64"))?,
                "p_teleport" => plan.p_teleport = value.parse().map_err(|_| bad("f64"))?,
                "teleport_m" => plan.teleport_m = value.parse().map_err(|_| bad("f64"))?,
                "teleport_points" => {
                    plan.teleport_points = value.parse().map_err(|_| bad("usize"))?
                }
                "p_clock_freeze" => {
                    plan.p_clock_freeze = value.parse().map_err(|_| bad("f64"))?
                }
                "freeze_points" => {
                    plan.freeze_points = value.parse().map_err(|_| bad("usize"))?
                }
                "p_stuck" => plan.p_stuck = value.parse().map_err(|_| bad("f64"))?,
                "stuck_points" => {
                    plan.stuck_points = value.parse().map_err(|_| bad("usize"))?
                }
                "p_dropout" => plan.p_dropout = value.parse().map_err(|_| bad("f64"))?,
                "dropout_gap_s" => {
                    plan.dropout_gap_s = value.parse().map_err(|_| bad("i64"))?
                }
                "task_panic_one_in" => {
                    plan.task_panic_one_in = value.parse().map_err(|_| bad("u64"))?
                }
                "kill_after_stage" => plan.kill_after_stage = Some(value.to_string()),
                "fail_checkpoint_stage" => {
                    plan.fail_checkpoint_stage = Some(value.to_string())
                }
                "gap_fill_max_expansions" => {
                    plan.gap_fill_max_expansions =
                        Some(value.parse().map_err(|_| bad("u64"))?)
                }
                "error_budget" => {
                    plan.error_budget = Some(value.parse().map_err(|_| bad("f64"))?)
                }
                "max_task_attempts" => {
                    plan.max_task_attempts = Some(value.parse().map_err(|_| bad("u32"))?)
                }
                "disk_bit_flips" => {
                    plan.disk_bit_flips = value.parse().map_err(|_| bad("u32"))?
                }
                "disk_truncate_bytes" => {
                    plan.disk_truncate_bytes = value.parse().map_err(|_| bad("u64"))?
                }
                "disk_duplicate_record" => {
                    plan.disk_duplicate_record = value.parse().map_err(|_| bad("bool"))?
                }
                "disk_garbage_header" => {
                    plan.disk_garbage_header = value.parse().map_err(|_| bad("bool"))?
                }
                "stream_kill_after_records" => {
                    plan.stream_kill_after_records =
                        value.parse().map_err(|_| bad("u64"))?
                }
                "stream_late_one_in" => {
                    plan.stream_late_one_in = value.parse().map_err(|_| bad("u64"))?
                }
                "stream_late_delay_s" => {
                    plan.stream_late_delay_s = value.parse().map_err(|_| bad("i64"))?
                }
                "stream_burst_one_in" => {
                    plan.stream_burst_one_in = value.parse().map_err(|_| bad("u64"))?
                }
                "stream_stall_one_in" => {
                    plan.stream_stall_one_in = value.parse().map_err(|_| bad("u64"))?
                }
                "stream_garble_one_in" => {
                    plan.stream_garble_one_in = value.parse().map_err(|_| bad("u64"))?
                }
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Structural sanity of a plan (probabilities, budgets in range).
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("p_teleport", self.p_teleport),
            ("p_clock_freeze", self.p_clock_freeze),
            ("p_stuck", self.p_stuck),
            ("p_dropout", self.p_dropout),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        let total =
            self.p_teleport + self.p_clock_freeze + self.p_stuck + self.p_dropout;
        if total > 1.0 {
            return Err(format!("fault probabilities sum to {total} > 1"));
        }
        if let Some(b) = self.error_budget {
            if !(0.0..=1.0).contains(&b) {
                return Err(format!("error_budget must be in [0, 1], got {b}"));
            }
        }
        if self.dropout_gap_s < 0 {
            return Err(format!("dropout_gap_s must be >= 0, got {}", self.dropout_gap_s));
        }
        if self.stream_late_delay_s < 0 {
            return Err(format!(
                "stream_late_delay_s must be >= 0, got {}",
                self.stream_late_delay_s
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PointTruth, TaxiId, TripId};
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::Timestamp;

    fn mk_points(n: usize) -> Vec<RoutePoint> {
        (0..n)
            .map(|i| RoutePoint {
                point_id: i as u64,
                trip_id: TripId(1),
                taxi: TaxiId(1),
                geo: GeoPoint::new(25.0, 65.0),
                pos: Point::new(i as f64 * 120.0, 0.0),
                timestamp: Timestamp::from_secs(i as i64 * 15),
                speed_kmh: 30.0,
                heading_deg: 90.0,
                fuel_ml: i as f64,
                truth: PointTruth { seq: i as u32, element: None },
            })
            .collect()
    }

    #[test]
    fn parse_round_trip() {
        let text = "# smoke plan\nseed 99\np_teleport 0.25\np_dropout 0.1\n\
                    task_panic_one_in 17\nkill_after_stage clean\nerror_budget 0.9\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 99);
        assert_eq!(plan.p_teleport, 0.25);
        assert_eq!(plan.p_dropout, 0.1);
        assert_eq!(plan.task_panic_one_in, 17);
        assert_eq!(plan.kill_after_stage.as_deref(), Some("clean"));
        assert_eq!(plan.error_budget, Some(0.9));
        assert!(plan.has_trace_faults());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        assert!(FaultPlan::parse("p_telport 0.5\n").is_err());
        assert!(FaultPlan::parse("p_teleport yes\n").is_err());
        assert!(FaultPlan::parse("p_teleport 1.5\n").is_err());
        assert!(FaultPlan::parse("p_teleport 0.8\np_dropout 0.8\n").is_err());
    }

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        let mut points = mk_points(60);
        let before = points.clone();
        assert_eq!(plan.apply_session(7, &mut points), None);
        assert_eq!(points, before);
    }

    #[test]
    fn faults_are_deterministic_per_trip() {
        let plan = FaultPlan { p_teleport: 0.5, p_dropout: 0.5, ..FaultPlan::default() };
        for trip in 0..20u64 {
            let mut a = mk_points(80);
            let mut b = mk_points(80);
            let fa = plan.apply_session(trip, &mut a);
            let fb = plan.apply_session(trip, &mut b);
            assert_eq!(fa, fb);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn teleport_displaces_a_run() {
        let plan = FaultPlan { p_teleport: 1.0, ..FaultPlan::default() };
        let mut points = mk_points(60);
        assert_eq!(plan.apply_session(3, &mut points), Some(InjectedFault::Teleport));
        let displaced = points
            .iter()
            .zip(mk_points(60))
            .filter(|(a, b)| a.pos.distance(b.pos) > 1_000.0)
            .count();
        assert_eq!(displaced, plan.teleport_points);
    }

    #[test]
    fn clock_freeze_throws_timestamps_backwards() {
        let plan = FaultPlan { p_clock_freeze: 1.0, ..FaultPlan::default() };
        let mut points = mk_points(60);
        assert_eq!(plan.apply_session(3, &mut points), Some(InjectedFault::ClockFreeze));
        let backwards =
            points.windows(2).filter(|w| w[1].timestamp < w[0].timestamp).count();
        assert!(backwards >= 1, "at least the run boundary goes backwards");
    }

    #[test]
    fn dropout_removes_points_and_delays_tail() {
        let plan = FaultPlan { p_dropout: 1.0, ..FaultPlan::default() };
        let mut points = mk_points(120);
        assert_eq!(plan.apply_session(3, &mut points), Some(InjectedFault::Dropout));
        assert!(points.len() < 120, "window removed");
        let max_gap = points
            .windows(2)
            .map(|w| (w[1].timestamp - w[0].timestamp).secs())
            .max()
            .unwrap();
        assert!(max_gap > plan.dropout_gap_s, "gap includes the injected delay");
        // Ids renumbered contiguously.
        let ids: Vec<u64> = points.iter().map(|p| p.point_id).collect();
        assert_eq!(ids, (0..points.len() as u64).collect::<Vec<u64>>());
    }

    fn fake_image() -> (Vec<u8>, Vec<RecordSpan>) {
        // A toy container: 16-byte header, then 4 records of 12-byte
        // frame + 20-byte payload.
        let mut bytes = vec![0xAAu8; 16];
        let mut spans = Vec::new();
        for i in 0..4u8 {
            let frame_start = bytes.len();
            bytes.extend_from_slice(&[i; 12]);
            let payload_start = bytes.len();
            bytes.extend_from_slice(&[0x10 + i; 20]);
            spans.push(RecordSpan { frame_start, payload_start, end: bytes.len() });
        }
        (bytes, spans)
    }

    #[test]
    fn disk_faults_are_deterministic_and_aimed() {
        let plan = FaultPlan { disk_bit_flips: 3, ..FaultPlan::default() };
        let (clean, spans) = fake_image();
        let mut a = clean.clone();
        let mut b = clean.clone();
        assert_eq!(
            plan.corrupt_file(7, &mut a, &spans),
            ["disk_bit_flip", "disk_bit_flip", "disk_bit_flip"]
        );
        plan.corrupt_file(7, &mut b, &spans);
        assert_eq!(a, b, "same salt, same corruption");
        let mut c = clean.clone();
        plan.corrupt_file(8, &mut c, &spans);
        assert_ne!(a, c, "different salt, different corruption");
        // Every changed byte lies inside a payload span.
        for (i, (x, y)) in clean.iter().zip(&a).enumerate() {
            if x != y {
                assert!(
                    spans.iter().any(|s| i >= s.payload_start && i < s.end),
                    "flip at {i} outside payloads"
                );
            }
        }
    }

    #[test]
    fn disk_duplicate_and_truncate_and_garbage() {
        let (clean, spans) = fake_image();
        let plan = FaultPlan { disk_duplicate_record: true, ..FaultPlan::default() };
        let mut img = clean.clone();
        assert_eq!(plan.corrupt_file(1, &mut img, &spans), ["disk_duplicate_record"]);
        assert_eq!(img.len(), clean.len() + 32, "one frame+payload duplicated");

        let plan = FaultPlan { disk_truncate_bytes: 10, ..FaultPlan::default() };
        let mut img = clean.clone();
        assert_eq!(plan.corrupt_file(1, &mut img, &spans), ["disk_truncate"]);
        assert_eq!(img.len(), clean.len() - 10);
        assert_eq!(img[..], clean[..clean.len() - 10]);

        let plan = FaultPlan { disk_garbage_header: true, ..FaultPlan::default() };
        let mut img = clean.clone();
        assert_eq!(plan.corrupt_file(1, &mut img, &spans), ["disk_garbage_header"]);
        assert_ne!(img[..8], clean[..8]);
        assert_eq!(img[8..], clean[8..]);
    }

    #[test]
    fn default_plan_leaves_disk_untouched() {
        let plan = FaultPlan::default();
        assert!(!plan.has_disk_faults());
        let (clean, spans) = fake_image();
        let mut img = clean.clone();
        assert!(plan.corrupt_file(0, &mut img, &spans).is_empty());
        assert_eq!(img, clean);
    }

    #[test]
    fn disk_keys_parse() {
        let plan = FaultPlan::parse(
            "seed 5\ndisk_bit_flips 2\ndisk_truncate_bytes 37\n\
             disk_duplicate_record true\ndisk_garbage_header false\n",
        )
        .unwrap();
        assert_eq!(plan.disk_bit_flips, 2);
        assert_eq!(plan.disk_truncate_bytes, 37);
        assert!(plan.disk_duplicate_record);
        assert!(!plan.disk_garbage_header);
        assert!(plan.has_disk_faults());
        assert!(!plan.has_trace_faults());
        assert!(FaultPlan::parse("disk_bit_flips maybe\n").is_err());
    }

    #[test]
    fn stream_keys_parse() {
        let plan = FaultPlan::parse(
            "seed 5\nstream_kill_after_records 500\nstream_late_one_in 7\n\
             stream_late_delay_s 3600\nstream_burst_one_in 11\n\
             stream_stall_one_in 13\nstream_garble_one_in 17\n",
        )
        .unwrap();
        assert_eq!(plan.stream_kill_after_records, 500);
        assert_eq!(plan.stream_late_one_in, 7);
        assert_eq!(plan.stream_late_delay_s, 3_600);
        assert_eq!(plan.stream_burst_one_in, 11);
        assert_eq!(plan.stream_stall_one_in, 13);
        assert_eq!(plan.stream_garble_one_in, 17);
        assert!(plan.has_stream_faults());
        assert!(!plan.has_trace_faults());
        assert!(!FaultPlan::default().has_stream_faults());
        assert!(FaultPlan::parse("stream_late_delay_s -5\n").is_err());
        assert!(FaultPlan::parse("stream_kill_after_record 5\n").is_err());
    }

    #[test]
    fn stream_rng_is_deterministic_per_record() {
        let plan = FaultPlan { seed: 9, ..FaultPlan::default() };
        for i in 0..8u64 {
            assert_eq!(plan.stream_rng(i).below(1_000), plan.stream_rng(i).below(1_000));
        }
        assert_ne!(
            plan.stream_rng(0).below(u64::MAX as usize),
            plan.stream_rng(1).below(u64::MAX as usize)
        );
    }

    #[test]
    fn stuck_freezes_positions_but_keeps_speed() {
        let plan = FaultPlan { p_stuck: 1.0, ..FaultPlan::default() };
        let mut points = mk_points(60);
        assert_eq!(plan.apply_session(3, &mut points), Some(InjectedFault::StuckSensor));
        let frozen = points
            .windows(2)
            .filter(|w| w[0].pos == w[1].pos && w[1].speed_kmh >= 30.0)
            .count();
        assert!(frozen >= plan.stuck_points - 1);
    }
}
