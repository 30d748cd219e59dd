//! The front-door contract: every way into stage 1 yields the same study.
//!
//! The study can start from the simulator, from a replayed trip store,
//! from untrusted external files (with or without the map), or from its
//! own `simulate` checkpoint. At `StudyConfig::quick(7)` each of them must
//! produce equal results, and each must report its own metric surface:
//! the counter names it emits and the `study/simulate*` span paths it
//! opens, in order. A source that silently stops reporting a counter
//! (`store.indexed_reads`, `ingest.sessions`, `exec.shard_units`, ...)
//! fails here even though its results are still right.

use taxi_traces::core::{Source, Study, StudyConfig, StudyOutput};
use taxi_traces::ingest::{export_osmx, export_trace_csv};
use taxi_traces::traces::PointTruth;

/// Counters every front door emits (the pipeline stages and the
/// executor meter).
const COMMON_COUNTERS: &[&str] = &[
    "clean.order_repaired",
    "clean.raw_points",
    "clean.rule_fires.rule1",
    "clean.rule_fires.rule2",
    "clean.rule_fires.rule3",
    "clean.rule_fires.rule4",
    "clean.rule_fires.rule5",
    "clean.segments_kept",
    "clean.segments_too_few_points",
    "clean.segments_too_long",
    "clean.sessions",
    "exec.batches",
    "exec.idle_us",
    "exec.steals",
    "exec.task_failures",
    "exec.task_panics",
    "exec.task_retries",
    "exec.tasks",
    "match.astar_expanded",
    "match.candidates_scored",
    "match.gap_budget_exhausted",
    "match.points_matched",
    "match.points_unmatched",
    "match.traces",
    "od.any_crossing",
    "od.filtered_cleaned",
    "od.post_filtered",
    "od.segments_total",
    "od.taxis",
    "od.transitions_total",
    "od.within_center",
    "sim.raw_points",
    "sim.sessions",
];

/// One front door's expected surface: the counters it adds to
/// [`COMMON_COUNTERS`] and its `study/simulate*` span paths in start order.
struct Surface {
    extra_counters: &'static [&'static str],
    spans: &'static [&'static str],
}

const SIMULATED: Surface = Surface {
    extra_counters: &[
        "exec.shard_units",
        "sim.route_expanded",
        "sim.routed_legs",
        "sim.steps",
    ],
    spans: &[
        "study/simulate",
        "study/simulate/city",
        "study/simulate/fleet",
        "study/simulate/persist",
    ],
};

const STORE: Surface = Surface {
    extra_counters: &[
        "store.indexed_reads",
        "store.records_total",
        "store.records_valid",
    ],
    spans: &[
        "study/simulate",
        "study/simulate/city",
        "study/simulate/load_store",
        "study/simulate/persist",
    ],
};

const EXTERNAL: Surface = Surface {
    extra_counters: &[
        "ingest.quarantined_total",
        "ingest.records_total",
        "ingest.records_valid",
        "ingest.sessions",
    ],
    spans: &[
        "study/simulate",
        "study/simulate/city",
        "study/simulate/ingest_traces",
        "study/simulate/persist",
    ],
};

const EXTERNAL_WITH_MAP: Surface = Surface {
    extra_counters: &[
        "ingest.map.records_total",
        "ingest.quarantined_total",
        "ingest.records_total",
        "ingest.records_valid",
        "ingest.sessions",
    ],
    spans: &[
        "study/simulate",
        "study/simulate/ingest_map",
        "study/simulate/ingest_traces",
        "study/simulate/persist",
    ],
};

/// A resumed run regenerates the city and reloads the sessions: no fleet
/// simulation, so no shard units.
const RESUMED: Surface = Surface {
    extra_counters: &[],
    spans: &[
        "study/simulate",
        "study/simulate/city",
        "study/simulate/persist",
    ],
};

/// Results must be equal field for field. The external schema carries no
/// simulator ground truth, so truth is stripped first, as in
/// `tests/ingest_parity.rs`.
fn assert_same_results(a: &StudyOutput, b: &StudyOutput, what: &str) {
    let strip = |out: &StudyOutput| {
        let mut segments = out.segments.clone();
        let mut transitions = out.transitions.clone();
        for p in segments
            .iter_mut()
            .flat_map(|s| s.points.iter_mut())
            .chain(transitions.iter_mut().flat_map(|t| t.points.iter_mut()))
        {
            p.truth = PointTruth {
                seq: 0,
                element: None,
            };
        }
        (segments, transitions)
    };
    let (a_segments, a_transitions) = strip(a);
    let (b_segments, b_transitions) = strip(b);
    assert_eq!(a_segments, b_segments, "segments: {what}");
    assert_eq!(a.funnel_rows, b.funnel_rows, "funnel: {what}");
    assert_eq!(a_transitions, b_transitions, "transitions: {what}");
    assert_eq!(a.cleaning, b.cleaning, "cleaning totals: {what}");
    assert_eq!(a.quarantine, b.quarantine, "quarantine: {what}");
}

/// The source's metric surface must equal `want`, and every work counter
/// it shares with the simulated run must carry the same value.
fn assert_surface(out: &StudyOutput, reference: &StudyOutput, want: &Surface, what: &str) {
    let mut expected: Vec<&str> = COMMON_COUNTERS
        .iter()
        .chain(want.extra_counters)
        .copied()
        .collect();
    expected.sort_unstable();
    let names: Vec<&str> = out
        .metrics
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names, expected, "counter names: {what}");

    let spans: Vec<&str> = out
        .metrics
        .spans
        .iter()
        .map(|s| s.path.as_str())
        .filter(|p| p.starts_with("study/simulate"))
        .collect();
    assert_eq!(spans, want.spans, "study/simulate spans: {what}");

    for (name, value) in &reference.metrics.counters {
        if name.starts_with("exec.") {
            continue;
        }
        if let Some(got) = out.metrics.counter(name) {
            assert_eq!(got, *value, "counter {name}: {what}");
        }
    }
}

#[test]
fn every_front_door_yields_the_same_study() {
    let dir = std::env::temp_dir().join(format!("ttrs-front-doors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let study = Study::new(StudyConfig::quick(7));

    let live = study.run().expect("simulated run");
    assert!(
        !live.transitions.is_empty(),
        "seed 7 must produce transitions"
    );
    assert_surface(&live, &live, &SIMULATED, "simulate");

    let sim = study.simulate().expect("simulate");
    let store = dir.join("trips.tts");
    sim.save_store(&store).expect("save store");
    let traces = dir.join("traces.csv");
    let map = dir.join("map.osmx");
    std::fs::write(&traces, export_trace_csv(sim.store.sessions())).expect("write traces");
    std::fs::write(&map, export_osmx(&sim.city)).expect("write map");

    let from_store = study.run_from(Source::Store(&store)).expect("store replay");
    assert_same_results(&live, &from_store, "store replay");
    assert_surface(&from_store, &live, &STORE, "store replay");

    let from_csv = study
        .run_from(Source::External {
            traces: &traces,
            map: None,
        })
        .expect("ingest");
    assert_same_results(&live, &from_csv, "external traces");
    assert_surface(&from_csv, &live, &EXTERNAL, "external traces");

    let from_csv_map = study
        .run_from(Source::External {
            traces: &traces,
            map: Some(&map),
        })
        .expect("ingest with map");
    assert_same_results(&live, &from_csv_map, "external traces and map");
    assert_surface(
        &from_csv_map,
        &live,
        &EXTERNAL_WITH_MAP,
        "external traces and map",
    );

    let ck = dir.join("checkpoints");
    let first = study.run_with_checkpoints(&ck).expect("checkpointed run");
    assert_same_results(&live, &first, "first checkpointed run");
    assert_surface(&first, &live, &SIMULATED, "first checkpointed run");
    assert!(ck.join("simulate.ttck").exists(), "simulate checkpoint");
    for stage in ["clean", "od"] {
        assert!(
            !ck.join(format!("{stage}.ttck")).exists(),
            "derived {stage} products are recomputed, not checkpointed"
        );
    }

    let second = study.run_with_checkpoints(&ck).expect("resumed run");
    assert_same_results(&live, &second, "second checkpointed run");
    assert_surface(&second, &live, &RESUMED, "second checkpointed run");

    std::fs::remove_dir_all(&dir).ok();
}
