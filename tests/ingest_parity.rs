//! External-format round trip and worker invariance of the ingest stage.
//!
//! Two claims, one test binary (it overrides the global worker pool, so
//! it must not share a process with other tests):
//!
//! * **Round trip** — exporting a simulated study to the external trace
//!   CSV and ingesting it back (with and without the exported OSMX map)
//!   reproduces the batch study's pipeline output field-for-field, down
//!   to the float bits of every fused transition. Exact-float formatting
//!   in the exporters is what makes this hold.
//! * **Worker invariance** — ingesting a seeded mutant of that export
//!   quarantines the identical ledger (records, reasons, details) at 1
//!   and at 4 workers: line lexing is parallel, but the issue ledger is
//!   ordered by record number, never by completion order.

use taxi_traces::core::{Source, Study, StudyConfig, StudyOutput};
use taxi_traces::ingest::{export_osmx, export_trace_csv, mutate};
use taxi_traces::traces::PointTruth;

/// The external schema deliberately carries no simulator ground truth
/// (`PointTruth` is validation-only and excluded from the study
/// fingerprint), so truth is normalized away before the field-for-field
/// comparison; everything the analyses consume must still be bit-equal.
fn assert_identical(a: &StudyOutput, b: &StudyOutput, what: &str) {
    let strip = |out: &StudyOutput| {
        let mut segments = out.segments.clone();
        let mut transitions = out.transitions.clone();
        for p in segments
            .iter_mut()
            .flat_map(|s| s.points.iter_mut())
            .chain(transitions.iter_mut().flat_map(|t| t.points.iter_mut()))
        {
            p.truth = PointTruth { seq: 0, element: None };
        }
        (segments, transitions)
    };
    let (a_segments, a_transitions) = strip(a);
    let (b_segments, b_transitions) = strip(b);
    assert_eq!(a.cleaning, b.cleaning, "cleaning totals: {what}");
    assert_eq!(a_segments, b_segments, "segments: {what}");
    assert_eq!(a.funnel_rows, b.funnel_rows, "funnel: {what}");
    assert_eq!(a_transitions, b_transitions, "transitions: {what}");
}

#[test]
fn external_round_trip_reproduces_the_batch_study_at_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("ttrs-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let config = StudyConfig::quick(77);
    let study = Study::new(config.clone());

    let batch = study.run().expect("batch study runs");
    assert!(!batch.transitions.is_empty(), "seed 77 must produce transitions");

    let sim = study.simulate().expect("simulate runs");
    let csv_path = dir.join("traces.csv");
    let map_path = dir.join("map.osmx");
    std::fs::write(&csv_path, export_trace_csv(sim.store.sessions())).expect("write csv");
    std::fs::write(&map_path, export_osmx(&sim.city)).expect("write map");

    // Round trip, synthetic city: bit-identical to the batch study.
    let ingested =
        study.run_from(Source::External { traces: &csv_path, map: None }).expect("ingest runs");
    assert!(ingested.quarantine.is_empty(), "clean export quarantines nothing");
    assert_identical(&batch, &ingested, "csv round trip");

    // Round trip through the exported map as well.
    let with_map = study
        .run_from(Source::External { traces: &csv_path, map: Some(&map_path) })
        .expect("map ingest runs");
    assert!(with_map.quarantine.is_empty(), "clean map quarantines nothing");
    assert_identical(&batch, &with_map, "csv+osmx round trip");

    // Worker invariance on damaged input: the same seeded mutant must
    // quarantine the identical ledger at 1 and at 4 workers.
    let mutant_path = dir.join("mutant.csv");
    let bytes = std::fs::read(&csv_path).expect("read export");
    std::fs::write(&mutant_path, mutate(&bytes, 42)).expect("write mutant");

    let mut ledgers = Vec::new();
    for workers in [1usize, 4] {
        taxitrace_exec::set_max_workers(workers);
        let out = study.run_from(Source::External { traces: &mutant_path, map: None });
        taxitrace_exec::set_max_workers(0);
        // A mutant may or may not stay under the error budget; both
        // verdicts are fine as long as they agree across worker counts.
        ledgers.push(match out {
            Ok(out) => Ok(out
                .quarantine
                .entries()
                .iter()
                .map(|e| (e.record, e.reason.label(), e.detail.clone()))
                .collect::<Vec<_>>()),
            Err(e) => Err(e.to_string()),
        });
    }
    assert_eq!(ledgers[0], ledgers[1], "quarantine ledger differs across worker counts");

    std::fs::remove_dir_all(&dir).ok();
}
