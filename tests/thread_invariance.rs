//! Thread-count invariance: the study pipeline is a pure function of its
//! seed, *not* of the worker pool. Sharded simulation derives one RNG
//! stream per (taxi, day) work unit and the executors merge results in
//! submission order, so `--threads 1/2/8` must produce bit-identical
//! output — including on a single-core host, where 8 workers means
//! deliberate oversubscription (the override is taken literally). The
//! same holds for the work the pipeline reports: every metrics counter
//! outside `exec.*` (the scheduler's own steals, idle time and task
//! spread) counts work, not scheduling, and must not move either.

use std::collections::BTreeMap;

use taxi_traces::core::{Study, StudyConfig, StudyOutput};

fn run_with_workers(workers: usize) -> StudyOutput {
    taxitrace_exec::set_max_workers(workers);
    let out = Study::new(StudyConfig::quick(77)).run().expect("study runs");
    taxitrace_exec::set_max_workers(0);
    out
}

/// Every pipeline artefact the study hands downstream, compared
/// field-for-field (all `f64`s via `PartialEq`, i.e. bit semantics for
/// any value the pipeline actually produces — NaNs would already fail
/// the pipeline's own validation).
fn assert_identical(a: &StudyOutput, b: &StudyOutput, workers: usize) {
    assert_eq!(a.cleaning, b.cleaning, "cleaning totals at {workers} workers");
    assert_eq!(a.segments, b.segments, "segments at {workers} workers");
    assert_eq!(a.funnel_rows, b.funnel_rows, "funnel at {workers} workers");
    assert_eq!(a.transitions, b.transitions, "transitions at {workers} workers");
    assert_eq!(work_counters(a), work_counters(b), "work counters at {workers} workers");
}

/// Every metrics counter except the executor's `exec.*` family.
fn work_counters(out: &StudyOutput) -> BTreeMap<&str, u64> {
    let counters = out.metrics.counters.iter().map(|(k, v)| (k.as_str(), *v));
    counters.filter(|(k, _)| !k.starts_with("exec.")).collect()
}

#[test]
fn study_output_is_invariant_across_thread_counts() {
    let reference = run_with_workers(1);
    assert!(!reference.transitions.is_empty(), "seed 77 must produce transitions");
    for workers in [2, 8] {
        let other = run_with_workers(workers);
        assert_identical(&reference, &other, workers);
    }
}
