//! Record-level quarantine: the pipeline's dead-letter ledger.
//!
//! A fault-tolerant study does not let one broken session poison a year of
//! data, and it does not silently drop it either. Records that violate a
//! stage's invariants are routed here with a typed reason, the stage keeps
//! going, and the run's health is judged afterwards against an *error
//! budget*: a stage succeeds with degradation metrics while the quarantined
//! fraction stays within budget, and fails with a structured
//! [`crate::Error::BudgetExceeded`] past it.
//!
//! The reason taxonomy extends the §IV-B raw-data error classes (the
//! trace-level [`taxitrace_cleaning::AnomalyKind`]s) with two pipeline-level
//! failure modes — a gap-fill search that ran out of budget
//! ([`QuarantineReason::UnmatchedGap`]) and a worker task that panicked
//! ([`QuarantineReason::TaskPanic`], isolated by `taxitrace-exec`) — and the
//! data-at-rest damage classes salvaged out of a store file
//! ([`QuarantineReason::CorruptRecord`], [`QuarantineReason::TornTail`],
//! [`QuarantineReason::HeaderMismatch`], mirroring
//! [`taxitrace_store::DamageKind`]), and the untrusted-input rejection
//! classes of the external-format ingest ([`QuarantineReason::MalformedLine`]
//! through [`QuarantineReason::DanglingRef`], mirroring
//! [`taxitrace_ingest::IngestReason`]).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use taxitrace_cleaning::AnomalyKind;
use taxitrace_obs::Registry;

/// Why a record was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// Teleporting displacement at an impossible implied speed.
    PositionJump,
    /// Flattened clock: many points on one timestamp while moving.
    ClockSkew,
    /// Long in-segment silence with substantial movement.
    Dropout,
    /// Frozen position with driving-range reported speeds.
    StuckSensor,
    /// Gap-fill search exhausted its expansion budget for this record.
    UnmatchedGap,
    /// The worker task processing this record panicked.
    TaskPanic,
    /// On-disk record failed its CRC (or duplicated an already-loaded
    /// trip) and was salvaged around.
    CorruptRecord,
    /// The store file ended mid-record; everything after the tear is lost.
    TornTail,
    /// The store header disagreed with the body (bad magic, header CRC,
    /// or record-count mismatch).
    HeaderMismatch,
    /// A streamed record arrived for a trip the watermark had already
    /// closed; accepting it would rewrite published results.
    LatePastWatermark,
    /// A streamed record failed structural validation (non-finite
    /// coordinates or speed) before it ever reached a trip buffer.
    MalformedRecord,
    /// An external-format line is not a record at all: invalid UTF-8,
    /// wrong field count, an oversized field, or a field that does not
    /// lex as its type.
    MalformedLine,
    /// An external field lexed but its value is outside the representable
    /// domain (non-finite float, latitude beyond ±90°).
    NumericRange,
    /// An external record contradicts the file's own schema or an earlier
    /// record of the same entity (bad header, conflicting trip summary,
    /// duplicate way id).
    SchemaMismatch,
    /// An external trip id re-appeared under a different taxi; the later
    /// claim was rejected.
    DuplicateTrip,
    /// An external record references an entity that does not exist (a way
    /// naming an unknown node, an object on an unknown way).
    DanglingRef,
}

impl QuarantineReason {
    /// Stable lowercase label (used in metric names and ledgers).
    pub fn label(self) -> &'static str {
        match self {
            QuarantineReason::PositionJump => "position_jump",
            QuarantineReason::ClockSkew => "clock_skew",
            QuarantineReason::Dropout => "dropout",
            QuarantineReason::StuckSensor => "stuck_sensor",
            QuarantineReason::UnmatchedGap => "unmatched_gap",
            QuarantineReason::TaskPanic => "task_panic",
            QuarantineReason::CorruptRecord => "corrupt_record",
            QuarantineReason::TornTail => "torn_tail",
            QuarantineReason::HeaderMismatch => "header_mismatch",
            QuarantineReason::LatePastWatermark => "late_past_watermark",
            QuarantineReason::MalformedRecord => "malformed_record",
            QuarantineReason::MalformedLine => "malformed_line",
            QuarantineReason::NumericRange => "numeric_range",
            QuarantineReason::SchemaMismatch => "schema_mismatch",
            QuarantineReason::DuplicateTrip => "duplicate_trip",
            QuarantineReason::DanglingRef => "dangling_ref",
        }
    }
}

impl From<AnomalyKind> for QuarantineReason {
    fn from(kind: AnomalyKind) -> Self {
        match kind {
            AnomalyKind::PositionJump => QuarantineReason::PositionJump,
            AnomalyKind::ClockSkew => QuarantineReason::ClockSkew,
            AnomalyKind::Dropout => QuarantineReason::Dropout,
            AnomalyKind::StuckSensor => QuarantineReason::StuckSensor,
        }
    }
}

impl From<taxitrace_ingest::IngestReason> for QuarantineReason {
    fn from(reason: taxitrace_ingest::IngestReason) -> Self {
        match reason {
            taxitrace_ingest::IngestReason::MalformedLine => QuarantineReason::MalformedLine,
            taxitrace_ingest::IngestReason::NumericRange => QuarantineReason::NumericRange,
            taxitrace_ingest::IngestReason::SchemaMismatch => QuarantineReason::SchemaMismatch,
            taxitrace_ingest::IngestReason::DuplicateTrip => QuarantineReason::DuplicateTrip,
            taxitrace_ingest::IngestReason::DanglingRef => QuarantineReason::DanglingRef,
        }
    }
}

impl From<taxitrace_store::DamageKind> for QuarantineReason {
    fn from(kind: taxitrace_store::DamageKind) -> Self {
        match kind {
            taxitrace_store::DamageKind::CorruptRecord => QuarantineReason::CorruptRecord,
            taxitrace_store::DamageKind::TornTail => QuarantineReason::TornTail,
            // A damaged v3 offset index is header-adjacent metadata; the
            // records themselves salvage by scan.
            taxitrace_store::DamageKind::HeaderMismatch
            | taxitrace_store::DamageKind::CorruptIndex => QuarantineReason::HeaderMismatch,
        }
    }
}

/// One quarantined record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Pipeline stage that rejected the record
    /// (`ingest`/`store`/`clean`/`od`/`match_fuse`/`stream`).
    pub stage: String,
    /// Trip id of the affected session/segment.
    pub record: u64,
    pub reason: QuarantineReason,
    /// Human-readable diagnosis from the detector.
    pub detail: String,
}

/// The run-wide dead-letter ledger, threaded through the stages in record
/// order (deterministic for a given config and chaos plan).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quarantine {
    entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    pub fn push(&mut self, entry: QuarantineEntry) {
        self.entries.push(entry);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in quarantine order.
    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }

    /// Entries of one stage.
    pub fn of_stage<'a>(&'a self, stage: &'a str) -> impl Iterator<Item = &'a QuarantineEntry> {
        self.entries.iter().filter(move |e| e.stage == stage)
    }

    /// Counts per reason label, sorted (deterministic iteration order).
    pub fn by_reason(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for e in &self.entries {
            *counts.entry(e.reason.label()).or_insert(0) += 1;
        }
        counts
    }

    /// Counts per stage, sorted.
    pub fn by_stage(&self) -> BTreeMap<&str, usize> {
        let mut counts = BTreeMap::new();
        for e in &self.entries {
            *counts.entry(e.stage.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Publishes one stage's quarantine outcome as metrics. Emits nothing
    /// when the stage quarantined no records, so a healthy run's metric
    /// surface is unchanged. Public so the streaming ingest can account
    /// its `stream` stage through the same surface.
    pub fn record_stage_metrics(&self, registry: &Registry, stage: &str, total: usize) {
        let stage_entries: Vec<&QuarantineEntry> = self.of_stage(stage).collect();
        if stage_entries.is_empty() {
            return;
        }
        registry.counter("quarantine.total").add(stage_entries.len() as u64);
        registry
            .counter(&format!("quarantine.stage.{stage}"))
            .add(stage_entries.len() as u64);
        let mut by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &stage_entries {
            *by_reason.entry(e.reason.label()).or_insert(0) += 1;
        }
        for (label, n) in by_reason {
            registry.counter(&format!("quarantine.reason.{label}")).add(n);
        }
        registry
            .gauge(&format!("quarantine.fraction.{stage}"))
            .set(stage_entries.len() as f64 / total.max(1) as f64);
    }
}

/// Enforces a stage's error budget: `Ok` while the quarantined fraction is
/// within `budget`, a structured [`crate::Error::BudgetExceeded`] past it.
/// Public so out-of-crate stages (the streaming ingest) share the exact
/// enforcement semantics.
pub fn check_budget(
    stage: &'static str,
    quarantined: usize,
    total: usize,
    budget: f64,
) -> Result<(), crate::Error> {
    let fraction = quarantined as f64 / total.max(1) as f64;
    if fraction > budget {
        return Err(crate::Error::BudgetExceeded { stage, quarantined, total, budget });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(stage: &str, record: u64, reason: QuarantineReason) -> QuarantineEntry {
        QuarantineEntry { stage: stage.into(), record, reason, detail: "t".into() }
    }

    #[test]
    fn ledger_counts_by_stage_and_reason() {
        let mut q = Quarantine::default();
        q.push(entry("clean", 1, QuarantineReason::PositionJump));
        q.push(entry("clean", 2, QuarantineReason::PositionJump));
        q.push(entry("match_fuse", 3, QuarantineReason::UnmatchedGap));
        assert_eq!(q.len(), 3);
        assert_eq!(q.by_stage().get("clean"), Some(&2));
        assert_eq!(q.by_reason().get("position_jump"), Some(&2));
        assert_eq!(q.of_stage("match_fuse").count(), 1);
    }

    #[test]
    fn ingest_reasons_map_one_to_one() {
        let mut reasons = std::collections::BTreeSet::new();
        for r in taxitrace_ingest::IngestReason::ALL {
            let q: QuarantineReason = r.into();
            assert_eq!(q.label(), r.label(), "labels agree across the crate boundary");
            assert!(reasons.insert(q.label()), "distinct reasons");
        }
    }

    #[test]
    fn budget_is_a_strict_fraction_bound() {
        assert!(check_budget("clean", 0, 100, 0.0).is_ok());
        assert!(check_budget("clean", 10, 100, 0.1).is_ok());
        let err = check_budget("clean", 11, 100, 0.1).expect_err("over budget");
        match err {
            crate::Error::BudgetExceeded { stage, quarantined, total, budget } => {
                assert_eq!((stage, quarantined, total, budget), ("clean", 11, 100, 0.1));
            }
            other => panic!("wrong error {other}"),
        }
        // An empty stage never exceeds any budget.
        assert!(check_budget("od", 0, 0, 0.0).is_ok());
    }

    #[test]
    fn healthy_stage_emits_no_quarantine_metrics() {
        let registry = Registry::new();
        Quarantine::default().record_stage_metrics(&registry, "clean", 100);
        assert!(registry.snapshot().counter("quarantine.total").is_none());

        let mut q = Quarantine::default();
        q.push(entry("clean", 1, QuarantineReason::Dropout));
        q.record_stage_metrics(&registry, "clean", 10);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("quarantine.total"), Some(1));
        assert_eq!(snap.counter("quarantine.stage.clean"), Some(1));
        assert_eq!(snap.counter("quarantine.reason.dropout"), Some(1));
        assert_eq!(snap.gauge("quarantine.fraction.clean"), Some(0.1));
    }
}
