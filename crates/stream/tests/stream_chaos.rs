//! Live-feed chaos suite: seeded stream faults must produce typed,
//! accounted-for outcomes — a mid-stream kill resumes byte-identically
//! from the stream cursor, a late-data flood blows the stream stage's
//! error budget, malformed records land in quarantine instead of
//! vanishing, and a starved queue applies backpressure without loss.

use std::path::PathBuf;

use taxitrace_core::{Error, FaultPlan, StudyConfig, StudyOutput};
use taxitrace_stream::{run_stream, StreamConfig};

fn config(plan: FaultPlan) -> StudyConfig {
    let mut config = StudyConfig::quick(23);
    config.chaos = Some(plan);
    config
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttstream-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn assert_same_output(a: &StudyOutput, b: &StudyOutput) {
    assert_eq!(a.cleaning, b.cleaning, "cleaning totals diverged");
    assert_eq!(a.segments.len(), b.segments.len(), "segment count diverged");
    for (x, y) in a.segments.iter().zip(&b.segments) {
        assert_eq!(x.points, y.points, "segment points diverged");
    }
    assert_eq!(a.funnel_rows, b.funnel_rows, "funnel diverged");
    assert_eq!(a.transitions, b.transitions, "fused transitions diverged");
    assert_eq!(a.quarantine.entries(), b.quarantine.entries(), "quarantine diverged");
}

#[test]
fn mid_stream_kill_resumes_byte_identically() {
    // The second plan garbles, delays and panics records on both sides of
    // the kill, so the resumed run must rebuild a non-empty ledger and the
    // closed trips' products by replaying the feed prefix.
    let faulty = FaultPlan {
        stream_garble_one_in: 40,
        stream_late_one_in: 50,
        stream_late_delay_s: 7200,
        task_panic_one_in: 13,
        error_budget: Some(0.9),
        ..FaultPlan::default()
    };
    for (tag, faults) in [("kill", FaultPlan::default()), ("kill-faulty", faulty)] {
        // Reference run: same seed and faults, kill disabled, no checkpoints.
        let stream_cfg = StreamConfig::default();
        let reference =
            run_stream(config(faults.clone()), &stream_cfg, None).expect("reference run");
        let total = reference.report.feed.records;
        assert!(total > 200, "need a non-trivial feed, got {total}");
        if tag == "kill-faulty" {
            let stages = reference.output.quarantine.by_stage();
            assert!(
                stages.contains_key("stream") && stages.contains_key("clean"),
                "{stages:?}"
            );
        }

        // Killed run: same data, kill half-way, checkpoint, resume.
        let kill_at = total / 2;
        let plan = FaultPlan {
            stream_kill_after_records: kill_at,
            ..faults
        };
        let dir = tmp_dir(tag);
        let killed = run_stream(config(plan.clone()), &stream_cfg, Some(&dir));
        match killed {
            Err(Error::InjectedKill { stage }) => {
                assert_eq!(stage, format!("stream@{kill_at}"));
            }
            other => panic!("{tag}: expected injected kill, got {other:?}"),
        }
        assert!(
            dir.join("stream.ttck").exists(),
            "kill must leave a checkpoint"
        );

        let resumed = run_stream(config(plan), &stream_cfg, Some(&dir)).expect("resumed run");
        assert_eq!(resumed.report.resumed_from, Some(kill_at));
        assert_eq!(resumed.report.resumes, 1);
        // Cumulative counters survive the kill: every record and every
        // close is accounted to exactly one of the two processes.
        let (got, want) = (&resumed.report, &reference.report);
        assert_eq!(got.records_total, total, "{tag}");
        assert_eq!(got.records_malformed, want.records_malformed, "{tag}");
        assert_eq!(got.late_dropped, want.late_dropped, "{tag}");
        assert_eq!(got.trips_closed, want.trips_closed, "{tag}");

        // The killed-and-resumed output is the uninterrupted output. Not
        // close — identical.
        assert_same_output(&reference.output, &resumed.output);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn periodic_checkpoints_also_resume_identically() {
    let stream_cfg = StreamConfig { checkpoint_every: 500, ..StreamConfig::default() };
    let reference =
        run_stream(config(FaultPlan::default()), &StreamConfig::default(), None)
            .expect("reference run");
    let total = reference.report.feed.records;
    let kill_at = (total / 3).max(1);
    let plan = FaultPlan { stream_kill_after_records: kill_at, ..FaultPlan::default() };
    let dir = tmp_dir("periodic");
    assert!(matches!(
        run_stream(config(plan.clone()), &stream_cfg, Some(&dir)),
        Err(Error::InjectedKill { .. })
    ));
    let resumed = run_stream(config(plan), &stream_cfg, Some(&dir)).expect("resumed run");
    assert!(resumed.report.checkpoints > 1, "periodic checkpoints should have fired");
    assert_same_output(&reference.output, &resumed.output);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn late_flood_blows_the_stream_budget() {
    let plan = FaultPlan {
        stream_late_one_in: 3,
        stream_late_delay_s: 86_400,
        error_budget: Some(0.05),
        ..FaultPlan::default()
    };
    match run_stream(config(plan), &StreamConfig::default(), None) {
        Err(Error::BudgetExceeded { stage, quarantined, total, .. }) => {
            assert_eq!(stage, "stream");
            assert!(quarantined > 0);
            assert!(quarantined as f64 / total as f64 > 0.05);
        }
        other => panic!("expected stream budget blow, got {other:?}"),
    }
}

#[test]
fn malformed_records_are_quarantined_not_dropped() {
    let plan = FaultPlan { stream_garble_one_in: 40, ..FaultPlan::default() };
    let run = run_stream(config(plan), &StreamConfig::default(), None).expect("gabled run");
    assert!(run.report.feed.garbled > 0, "plan should have garbled records");
    assert_eq!(run.report.records_malformed, run.report.feed.garbled);
    // Every malformed or late record has a ledger entry — nothing is
    // silently dropped.
    let stream_entries =
        run.output.quarantine.entries().iter().filter(|e| e.stage == "stream").count() as u64;
    assert_eq!(stream_entries, run.report.records_malformed + run.report.late_dropped);
    // And everything the feed produced was consumed.
    assert_eq!(run.report.records_total, run.report.feed.records);
}

#[test]
fn starved_queue_applies_backpressure_without_loss() {
    let plan = FaultPlan {
        stream_burst_one_in: 10,
        stream_stall_one_in: 400,
        ..FaultPlan::default()
    };
    let stream_cfg = StreamConfig { queue_capacity: 1, ..StreamConfig::default() };
    let run = run_stream(config(plan), &stream_cfg, None).expect("bursty run");
    assert!(run.report.feed.bursts > 0);
    assert!(run.report.feeder_stalls > 0, "stall injection should have fired");
    assert!(
        run.report.backpressure_stalls > 0,
        "a capacity-1 queue must have blocked the feeder at least once"
    );
    // The backpressure contract: blocked, never dropped.
    assert_eq!(run.report.records_total, run.report.feed.records);
    assert_eq!(run.report.late_dropped + run.report.records_malformed, 0);
    // The gauge also counts the record in flight at the feeder and the
    // one just received, so the transient bound is capacity + 2.
    assert!(
        run.report.max_queue_depth <= stream_cfg.queue_capacity as u64 + 2,
        "queue depth {} exceeds bounded capacity",
        run.report.max_queue_depth
    );
}
