//! Chaos-harness integration tests: fault injection, quarantine, error
//! budgets, and checkpoint/resume — the pipeline's failure model end to
//! end.
//!
//! The central claims verified here:
//!
//! * a **default** (no-chaos) plan changes nothing — the fault-tolerant
//!   pipeline is byte-identical to the historical one on healthy data;
//! * chaos faults are **deterministic** in the plan seed: same plan, same
//!   results, same quarantine ledger, across runs *and* across a kill and
//!   a second `Study::run_with_checkpoints` call;
//! * degradation is **bounded and typed**: within the error budget a run
//!   succeeds with a populated ledger, past it the run fails with a
//!   structured [`Error::BudgetExceeded`], and no injected panic ever
//!   escapes the executor.

use std::path::PathBuf;

use taxitrace_core::{
    Error, FaultPlan, QuarantineReason, Study, StudyConfig, StudyOutput,
};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taxitrace-chaos-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A trace-fault plan aggressive enough to quarantine sessions at a quick
/// scale, while staying within a generous error budget.
fn faulty_plan() -> FaultPlan {
    FaultPlan {
        seed: 9,
        p_teleport: 0.04,
        p_clock_freeze: 0.04,
        p_stuck: 0.03,
        p_dropout: 0.03,
        task_panic_one_in: 97,
        error_budget: Some(0.5),
        ..FaultPlan::default()
    }
}

fn assert_same_results(a: &StudyOutput, b: &StudyOutput) {
    assert_eq!(a.segments, b.segments);
    assert_eq!(a.funnel_rows, b.funnel_rows);
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.cleaning, b.cleaning);
    assert_eq!(a.quarantine, b.quarantine);
    // Byte-level check over the full result surface.
    assert_eq!(
        format!("{:?}{:?}{:?}", a.transitions, a.funnel_rows, a.quarantine),
        format!("{:?}{:?}{:?}", b.transitions, b.funnel_rows, b.quarantine),
    );
}

#[test]
fn default_plan_changes_nothing() {
    let plain = Study::new(StudyConfig::quick(7)).run().expect("plain run");
    let mut config = StudyConfig::quick(7);
    config.chaos = Some(FaultPlan::default());
    let with_plan = Study::new(config).run().expect("default-plan run");
    assert!(plain.quarantine.is_empty());
    assert!(with_plan.quarantine.is_empty());
    assert_same_results(&plain, &with_plan);
    assert_eq!(
        plain.metrics.counter("match.astar_expanded"),
        with_plan.metrics.counter("match.astar_expanded")
    );
    assert!(plain.metrics.counter("quarantine.total").is_none());
}

#[test]
fn chaos_faults_quarantine_deterministically() {
    let mut config = StudyConfig::quick(7);
    config.chaos = Some(faulty_plan());
    let a = Study::new(config.clone()).run().expect("chaos run a");
    let b = Study::new(config).run().expect("chaos run b");

    assert!(!a.quarantine.is_empty(), "aggressive plan must quarantine something");
    assert_same_results(&a, &b);

    // The ledger carries typed reasons from the trace-fault taxonomy and
    // the metrics surface reports the same totals.
    let by_reason = a.quarantine.by_reason();
    assert!(by_reason.len() >= 2, "expected several reasons, got {by_reason:?}");
    assert_eq!(
        a.metrics.counter("quarantine.total"),
        Some(a.quarantine.len() as u64)
    );
    assert!(a.metrics.counter("chaos.sessions_faulted").is_some_and(|v| v > 0));
    // Degraded, not destroyed: the study still produces transitions.
    assert!(!a.transitions.is_empty());
}

#[test]
fn injected_panics_are_isolated_and_quarantined() {
    let mut config = StudyConfig::quick(11);
    config.chaos = Some(FaultPlan {
        task_panic_one_in: 13,
        error_budget: Some(0.5),
        ..FaultPlan::default()
    });
    let out = Study::new(config).run().expect("panics stay inside the executor");
    let panics =
        out.quarantine.entries().iter().filter(|e| e.reason == QuarantineReason::TaskPanic);
    let n = panics.count();
    assert!(n > 0, "one in 13 trips must panic at quick scale");
    assert_eq!(out.metrics.counter("exec.task_panics"), Some(n as u64));
    assert_eq!(out.metrics.counter("quarantine.stage.clean"), Some(n as u64));
    for e in out.quarantine.entries() {
        assert!(e.detail.contains("chaos"), "panic message surfaced: {e:?}");
    }
}

#[test]
fn blown_budget_is_a_structured_error() {
    let mut config = StudyConfig::quick(7);
    config.chaos = Some(FaultPlan {
        seed: 9,
        p_teleport: 0.4,
        error_budget: Some(0.0),
        ..FaultPlan::default()
    });
    match Study::new(config).run() {
        Err(Error::BudgetExceeded { stage, quarantined, total, budget }) => {
            assert_eq!(stage, "clean");
            assert!(quarantined > 0 && quarantined <= total);
            assert_eq!(budget, 0.0);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn gap_budget_exhaustion_quarantines_unmatched_legs() {
    let baseline = Study::new(StudyConfig::quick(7)).run().expect("baseline");
    let mut config = StudyConfig::quick(7);
    config.chaos = Some(FaultPlan {
        gap_fill_max_expansions: Some(1),
        error_budget: Some(1.0),
        ..FaultPlan::default()
    });
    let starved = Study::new(config).run().expect("starved run");
    let unmatched: Vec<_> = starved
        .quarantine
        .entries()
        .iter()
        .filter(|e| e.reason == QuarantineReason::UnmatchedGap)
        .collect();
    assert!(!unmatched.is_empty(), "a 1-expansion budget must strand gap fills");
    assert!(unmatched.iter().all(|e| e.stage == "match_fuse"));
    assert_eq!(
        starved.transitions.len() + unmatched.len(),
        baseline.transitions.len(),
        "every baseline transition is either fused or quarantined"
    );
    assert!(starved.metrics.counter("match.gap_budget_exhausted").is_some_and(|v| v > 0));
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = fresh_dir("kill-resume");
    let mut config = StudyConfig::quick(7);
    config.chaos = Some(FaultPlan {
        kill_after_stage: Some("simulate".into()),
        ..faulty_plan()
    });
    let study = Study::new(config.clone());

    // First run dies right after checkpointing the simulate stage.
    match study.run_with_checkpoints(&dir) {
        Err(Error::InjectedKill { stage }) => assert_eq!(stage, "simulate"),
        other => panic!("expected the injected kill, got {other:?}"),
    }
    assert!(dir.join("simulate.ttck").exists());

    // Resume completes from the checkpoint (the killed stage is loaded,
    // not re-run, so the kill does not re-fire), recomputes every later
    // stage, and matches an unkilled run of the same config bit for bit.
    let resumed = study.run_with_checkpoints(&dir).expect("resume after kill");
    let unkilled = Study::new(config).run().expect("straight-through run");
    assert_same_results(&resumed, &unkilled);
    assert!(!resumed.quarantine.is_empty());
    // Fault-injection counters describe the data, so the resumed run
    // reports them even though this process never ran the injection.
    assert_eq!(
        resumed.metrics.counter("chaos.sessions_faulted"),
        unkilled.metrics.counter("chaos.sessions_faulted")
    );
    assert!(resumed.metrics.counter("chaos.sessions_faulted").is_some_and(|v| v > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_write_failure_recovers_on_retry() {
    let dir = fresh_dir("ckfail");
    let mut config = StudyConfig::quick(7);
    config.chaos = Some(FaultPlan {
        fail_checkpoint_stage: Some("simulate".into()),
        ..FaultPlan::default()
    });
    let study = Study::new(config.clone());
    match study.run_with_checkpoints(&dir) {
        Err(Error::Store(_)) => {}
        other => panic!("expected the injected store error, got {other:?}"),
    }
    let retried = study.run_with_checkpoints(&dir).expect("retry survives the one-shot fault");
    let plain = Study::new(config).run().expect("plain run");
    assert_same_results(&retried, &plain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_checkpoints_are_ignored_on_config_change() {
    let dir = fresh_dir("stale");
    Study::new(StudyConfig::quick(7)).run_with_checkpoints(&dir).expect("seed 7");
    // Same directory, different config: the fingerprint mismatch forces a
    // clean recompute instead of silently mixing two studies.
    let fresh = Study::new(StudyConfig::quick(8)).run_with_checkpoints(&dir).expect("seed 8");
    let reference = Study::new(StudyConfig::quick(8)).run().expect("reference");
    assert_same_results(&fresh, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_run_equals_plain_run_when_healthy() {
    let dir = fresh_dir("healthy");
    let a = Study::new(StudyConfig::quick(5)).run_with_checkpoints(&dir).expect("first");
    // A second call loads the simulate checkpoint and recomputes the rest.
    let b = Study::new(StudyConfig::quick(5)).run_with_checkpoints(&dir).expect("second");
    let plain = Study::new(StudyConfig::quick(5)).run().expect("plain");
    assert_same_results(&a, &plain);
    assert_same_results(&b, &plain);
    let _ = std::fs::remove_dir_all(&dir);
}
