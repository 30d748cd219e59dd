//! Golden-file test for the JSON metrics sink: the serialized form of a
//! fixed snapshot must stay byte-identical to the committed golden file.
//! Regenerate deliberately with `BLESS=1 cargo test -p taxitrace-obs`.

use taxitrace_obs::{render_json, Registry};

fn fixed_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("clean.sessions").add(2549);
    reg.counter("clean.rule_fires.rule1").add(1021);
    reg.counter("match.points_matched").add(740);
    reg.counter("match.points_unmatched").add(212);
    reg.counter("exec.tasks").add(7496);
    reg.counter("exec.steals").add(12);
    reg.gauge("exec.workers").set(4.0);
    reg.gauge("quarantine.fraction.match_fuse").set(0.7773);
    // Fault-tolerance families (schema v2).
    reg.counter("quarantine.total").add(17);
    reg.counter("quarantine.stage.clean").add(15);
    reg.counter("quarantine.reason.position_jump").add(11);
    reg.counter("quarantine.reason.task_panic").add(4);
    reg.counter("chaos.sessions_faulted").add(13);
    reg.counter("chaos.faults.teleport").add(11);
    reg.counter("exec.task_panics").add(4);
    reg.counter("exec.task_retries").add(2);
    reg.counter("match.gap_budget_exhausted").add(2);
    reg.gauge("quarantine.fraction.clean").set(0.0059);
    // Storage-integrity families (schema v3).
    reg.counter("store.records_total").add(2549);
    reg.counter("store.records_valid").add(2546);
    reg.counter("store.corrupt_records").add(3);
    reg.counter("store.damaged.corrupt_record").add(1);
    reg.counter("store.damaged.torn_tail").add(2);
    reg.counter("quarantine.stage.store").add(3);
    reg.counter("quarantine.reason.corrupt_record").add(1);
    reg.counter("quarantine.reason.torn_tail").add(2);
    // Serving families (schema v4).
    reg.counter("serve.requests_total").add(600);
    reg.counter("serve.requests.od_flow").add(180);
    reg.counter("serve.requests.cell_speed").add(180);
    reg.counter("serve.requests.trip_lookup").add(150);
    reg.counter("serve.requests.grid_stats").add(90);
    reg.counter("serve.errors_total").add(0);
    reg.counter("serve.snapshot_swaps").add(1);
    reg.counter("serve.epoch_refreshes").add(4);
    reg.gauge("serve.workers").set(4.0);
    // Streaming + admission-control families (schema v5).
    reg.counter("stream.records_total").add(37502);
    reg.counter("stream.trips_closed").add(888);
    reg.counter("stream.records_malformed").add(3);
    reg.counter("stream.late_dropped").add(2);
    reg.counter("stream.backpressure_stalls").add(3611);
    reg.counter("stream.checkpoints").add(37);
    reg.counter("stream.resumes").add(1);
    reg.gauge("stream.queue_depth").set(0.0);
    reg.gauge("stream.watermark_lag_s").set(42.0);
    reg.gauge("stream.window.transitions").set(5.0);
    reg.counter("serve.shed_total").add(5);
    reg.gauge("serve.max_inflight").set(8.0);
    // Untrusted-ingestion + header-hardening families (schema v6).
    reg.counter("ingest.records_total").add(37502);
    reg.counter("ingest.records_valid").add(37498);
    reg.counter("ingest.quarantined_total").add(4);
    reg.counter("ingest.damaged.malformed_line").add(2);
    reg.counter("ingest.damaged.numeric_range").add(2);
    reg.counter("ingest.sessions").add(888);
    reg.counter("ingest.map.records_total").add(1547);
    reg.counter("serve.oversize_total").add(1);
    let lat = reg.histogram("serve.latency_us", &[250.0, 1000.0, 5000.0]);
    for v in [120.0, 300.0, 300.0, 2200.0, 9000.0] {
        lat.observe(v);
    }
    let h = reg.histogram("exec.worker_tasks", &[64.0, 256.0, 1024.0]);
    for v in [40.0, 200.0, 200.0, 800.0, 3000.0] {
        h.observe(v);
    }
    // Deterministic span records (a live span would measure wall clock).
    reg.record_span("study", 4.25, 0);
    reg.record_span("study/simulate", 1.5, 2549);
    reg.record_span("study/clean", 0.75, 2549);
    reg.record_span("study/od", 0.5, 4819);
    reg.record_span("study/match_fuse", 1.5, 113);
    reg
}

#[test]
fn json_sink_matches_golden_file() {
    let json = render_json(&fixed_registry().snapshot());
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &json).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "golden file missing — run once with BLESS=1 to create it",
    );
    assert_eq!(
        json, golden,
        "JSON sink output drifted from tests/golden/metrics.json; if the\n\
         change is intentional, bump JSON_SCHEMA_VERSION and re-bless"
    );
}
