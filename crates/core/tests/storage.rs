//! Storage-integrity integration tests: the on-disk failure model end to
//! end, from a seeded corruption plan through salvage, quarantine, error
//! budgets, and `fsck --repair`.
//!
//! The central claims verified here:
//!
//! * replaying a **healthy** v3 store produces the same study results as
//!   the live simulation that wrote it;
//! * seeded bit-flip + torn-tail corruption loses **only** the damaged
//!   records: the pipeline completes, the lost records land in the
//!   quarantine ledger with typed reasons, and the outcome is
//!   deterministic across runs;
//! * a zero store budget turns that same damage into a structured
//!   [`Error::BudgetExceeded`] at the `store` stage;
//! * a store written under a different config fingerprint is refused;
//! * `fsck` repair rewrites a clean container that rescans clean and
//!   replays with an empty ledger.

use std::path::{Path, PathBuf};

use taxitrace_core::{Error, FaultPlan, QuarantineReason, Source, Study, StudyConfig, StudyOutput};
use taxitrace_store::codec::record_spans;
use taxitrace_store::fsck::fsck_path;
use taxitrace_store::StoreError;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taxitrace-storage-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn assert_same_results(a: &StudyOutput, b: &StudyOutput) {
    assert_eq!(a.segments, b.segments);
    assert_eq!(a.funnel_rows, b.funnel_rows);
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.cleaning, b.cleaning);
    assert_eq!(a.quarantine, b.quarantine);
}

/// Writes the quick(7) population to `dir/trips.tts` and returns the path.
fn saved_store(dir: &Path) -> PathBuf {
    let path = dir.join("trips.tts");
    let sim = Study::new(StudyConfig::quick(7)).simulate().expect("simulate");
    sim.save_store(&path).expect("save store");
    path
}

/// Applies a seeded bit-flip + torn-tail plan to the container at `path`.
fn corrupt_store(path: &Path) -> Vec<&'static str> {
    let mut bytes = std::fs::read(path).expect("read store");
    let spans = record_spans(&bytes).expect("spans");
    let plan = FaultPlan {
        seed: 21,
        disk_bit_flips: 2,
        disk_truncate_bytes: 37,
        ..FaultPlan::default()
    };
    let applied = plan.corrupt_file(0, &mut bytes, &spans);
    assert!(!applied.is_empty(), "plan must apply at least one fault");
    std::fs::write(path, &bytes).expect("write corrupted store");
    applied
}

#[test]
fn healthy_store_replay_equals_live_run() {
    let dir = fresh_dir("healthy");
    let path = saved_store(&dir);
    let live = Study::new(StudyConfig::quick(7)).run().expect("live run");
    let replayed =
        Study::new(StudyConfig::quick(7)).run_from(Source::Store(&path)).expect("replay run");
    assert_same_results(&live, &replayed);
    assert!(replayed.quarantine.is_empty());
    // The replay path reports what it read; a healthy file has no
    // corruption counters at all.
    assert!(replayed.metrics.counter("store.records_total").is_some_and(|v| v > 0));
    assert_eq!(
        replayed.metrics.counter("store.records_total"),
        replayed.metrics.counter("store.records_valid"),
    );
    assert!(replayed.metrics.counter("store.corrupt_records").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_loses_only_the_damaged_records() {
    let dir = fresh_dir("salvage");
    let path = saved_store(&dir);
    let applied = corrupt_store(&path);
    assert!(applied.contains(&"disk_bit_flip"));
    assert!(applied.contains(&"disk_truncate"));

    let study = Study::new(StudyConfig::quick(7));
    let a = study.run_from(Source::Store(&path)).expect("salvage run a");
    let b = study.run_from(Source::Store(&path)).expect("salvage run b");
    assert_same_results(&a, &b);

    // Every lost record is a typed ledger entry at the store stage.
    let store_entries: Vec<_> =
        a.quarantine.entries().iter().filter(|e| e.stage == "store").collect();
    assert!(!store_entries.is_empty(), "corruption must quarantine records");
    assert!(store_entries
        .iter()
        .all(|e| matches!(
            e.reason,
            QuarantineReason::CorruptRecord
                | QuarantineReason::TornTail
                | QuarantineReason::HeaderMismatch
        )));
    // The torn tail guarantees at least one TornTail entry; the payload
    // bit flips guarantee at least one CorruptRecord entry.
    assert!(store_entries.iter().any(|e| e.reason == QuarantineReason::TornTail));
    assert!(store_entries.iter().any(|e| e.reason == QuarantineReason::CorruptRecord));

    // Metrics agree with the ledger, and the pipeline still delivered.
    assert_eq!(
        a.metrics.counter("store.corrupt_records"),
        Some(store_entries.len() as u64)
    );
    assert_eq!(
        a.metrics.counter("quarantine.stage.store"),
        Some(store_entries.len() as u64)
    );
    let total = a.metrics.counter("store.records_total").expect("records_total");
    let valid = a.metrics.counter("store.records_valid").expect("records_valid");
    assert_eq!(total - valid, store_entries.len() as u64, "only damaged records lost");
    assert!(!a.transitions.is_empty(), "degraded, not destroyed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_store_budget_is_a_structured_error() {
    let dir = fresh_dir("budget");
    // The budget is part of the config, so the store must be written under
    // the same config or the fingerprint gate fires first.
    let mut config = StudyConfig::quick(7);
    config.fault.store_error_budget = 0.0;
    let path = dir.join("trips.tts");
    let sim = Study::new(config.clone()).simulate().expect("simulate");
    sim.save_store(&path).expect("save store");
    corrupt_store(&path);
    match Study::new(config).run_from(Source::Store(&path)) {
        Err(Error::BudgetExceeded { stage, quarantined, total, budget }) => {
            assert_eq!(stage, "store");
            assert!(quarantined > 0 && quarantined <= total);
            assert_eq!(budget, 0.0);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_fingerprint_is_refused() {
    let dir = fresh_dir("fingerprint");
    let path = saved_store(&dir);
    // Same store, different study config: the fingerprint gate must refuse
    // to silently analyze another study's data.
    match Study::new(StudyConfig::quick(8)).run_from(Source::Store(&path)) {
        Err(Error::Store(StoreError::BadFormat(msg))) => {
            assert!(msg.contains("fingerprint"), "{msg}");
        }
        other => panic!("expected a fingerprint error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_repair_round_trips_to_a_clean_store() {
    let dir = fresh_dir("fsck");
    let path = saved_store(&dir);
    corrupt_store(&path);

    // First pass reports the damage without touching the file.
    let before = std::fs::read(&path).expect("read");
    let reports = fsck_path(&path, false).expect("fsck scan");
    assert_eq!(reports.len(), 1);
    assert!(!reports[0].is_clean());
    assert!(reports[0].records_valid < reports[0].records_declared);
    assert_eq!(before, std::fs::read(&path).expect("reread"), "scan must not write");

    // Repair rewrites a clean v2 container from the salvageable records...
    let reports = fsck_path(&path, true).expect("fsck repair");
    assert_eq!(reports.len(), 1);
    assert!(reports[0].repaired.is_some());

    // ...which rescans with zero errors and replays with an empty ledger.
    let reports = fsck_path(&path, false).expect("rescan");
    assert!(reports[0].is_clean(), "repaired file must be clean: {:?}", reports[0]);
    let out = Study::new(StudyConfig::quick(7)).run_from(Source::Store(&path)).expect("replay");
    assert!(out.quarantine.is_empty());
    assert!(out.metrics.counter("store.corrupt_records").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
