//! The batch and stream study paths, timed from outside.
//!
//! [`pass`] is one `study` operation: simulate, persist the store to disk,
//! clean, O-D selection, match and fuse, then the analysis behind every
//! table and figure of `repro all` (the `validation` oracle excepted) with
//! its rendering. [`traced_pass`] is the same pass with each stage call
//! timed, and [`probe_layers`] calls the sub-stage functions one by one on
//! its outputs to time the layers the stages hide.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use taxitrace_cleaning::{repair_order, resplit_rule1, segment_columns, FilterStats};
use taxitrace_core::{
    config_fingerprint, directional_speeds, mixed_model, render_table1, render_table3,
    render_table4, render_table5, resolved_matching_config, seasonal_deltas, seasonal_speeds,
    temperature_analysis, transition_anomaly, Error, Study, StudyConfig, StudyOutput, Table4,
    TransitionRecord,
};
use taxitrace_geo::Point;
use taxitrace_matching::{incremental, CandidateIndex, MatchScratch};
use taxitrace_obs::MetricsSnapshot;
use taxitrace_od::OdAnalyzer;
use taxitrace_stream::{run_stream, StreamConfig, StreamRun};
use taxitrace_traces::{RoutePoint, TaxiId, TraceColumns};

/// Fleet scale of the paper configuration (the full study year).
pub const SCALE: f64 = 1.0;

/// Per-layer figures, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// The paper configuration (7 taxis, the full year) for `seed`.
pub fn config(seed: u64) -> StudyConfig {
    StudyConfig::scaled(seed, SCALE)
}

/// Set-up of a study run: building and validating its configuration.
/// Timed over batches of 1000 so the figure is above timer resolution;
/// returns the per-setup seconds of each of `batches` batches.
pub fn setup_samples(seed: u64, batches: usize) -> Result<Vec<f64>, String> {
    let mut per_setup = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for i in 0..1000u64 {
            let cfg = config(std::hint::black_box(seed.wrapping_add(i % 2)));
            cfg.validate().map_err(|e| e.to_string())?;
            std::hint::black_box(cfg);
        }
        per_setup.push(start.elapsed().as_secs_f64() / 1000.0);
    }
    Ok(per_setup)
}

/// One study operation. Returns the output and the rendered analysis.
pub fn pass(cfg: &StudyConfig, store: &Path) -> Result<(StudyOutput, String), Error> {
    let sim = Study::new(cfg.clone()).simulate()?;
    sim.save_store(store)?;
    let out = sim.clean()?.analyze_od()?.match_fuse()?;
    let mut timer = AnalysisTimes::default();
    let rendered = analysis(&out, &mut timer)?;
    Ok((out, rendered))
}

/// Seconds spent in the analysis's model fits and grid binning.
#[derive(Debug, Default)]
pub struct AnalysisTimes {
    pub lmm_s: f64,
    pub grid_s: f64,
}

/// The analysis behind `repro all` (tables 1-5, figures 2-10) rendered to
/// text, in `repro`'s order; the mixed model is fitted once per figure
/// that uses it, as `repro` does.
pub fn analysis(out: &StudyOutput, t: &mut AnalysisTimes) -> Result<String, Error> {
    let mut s = String::new();
    let fit = |t: &mut AnalysisTimes| {
        let start = Instant::now();
        let m = mixed_model(out).map_err(|e| Error::Pipeline(format!("mixed model: {e}")));
        t.lmm_s += start.elapsed().as_secs_f64();
        m
    };
    let grid = |t: &mut AnalysisTimes, pair: Option<&str>| {
        let start = Instant::now();
        let g = out.grid_stats(pair);
        t.grid_s += start.elapsed().as_secs_f64();
        g
    };
    // fig2: the O-D corridors and centre area on a 17 x 17 map.
    let analyzer = OdAnalyzer::from_city(&out.city);
    for iy in (-8..=8).rev() {
        for ix in -8..=8 {
            let p = Point::new(f64::from(ix) * 300.0, f64::from(iy) * 300.0);
            let mut ch = if out.city.center_area.contains(p) {
                'c'
            } else {
                ' '
            };
            for ep in analyzer.endpoints() {
                if ep.corridor.contains(p) {
                    ch = ep.name.chars().next().unwrap_or('?');
                }
            }
            s.push(ch);
        }
        s.push('\n');
    }
    // table1..table5
    s.push_str(&render_table1(out, 6));
    let multi = out
        .city
        .graph
        .edges()
        .iter()
        .filter(|e| e.elements.len() >= 2)
        .count();
    let _ = writeln!(s, "{multi} of {} edges", out.city.graph.num_edges());
    let _ = writeln!(s, "{:?}", out.cleaning);
    s.push_str(&render_table3(out));
    s.push_str(&render_table4(&Table4::compute(out)));
    let low: Vec<f64> = out.transitions.iter().map(|t| t.low_speed_pct).collect();
    let fuel: Vec<f64> = out
        .transitions
        .iter()
        .map(|t| t.fuel_ml / t.dist_km.max(0.1))
        .collect();
    let _ = writeln!(s, "{:?}", taxitrace_stats::pearson(&low, &fuel));
    s.push_str(&render_table5(&grid(t, None).table5()));
    // fig3..fig10
    let speeds: Vec<f64> = out
        .transitions
        .iter()
        .filter(|t| t.taxi == TaxiId(1))
        .flat_map(|t| t.points.iter().map(|p| p.speed_kmh))
        .collect();
    let mut bins = [0usize; 8];
    for v in &speeds {
        let edges = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0];
        bins[edges.iter().take_while(|&&e| *v >= e).count()] += 1;
    }
    let _ = writeln!(s, "{} {bins:?}", speeds.len());
    let _ = writeln!(s, "{:?}", directional_speeds(out, Some(TaxiId(1))));
    let _ = writeln!(s, "{:?}", directional_speeds(out, None));
    let _ = writeln!(s, "{:?}", seasonal_speeds(out, None));
    let _ = writeln!(s, "{:?}", seasonal_deltas(out));
    let _ = writeln!(s, "{:?}", grid(t, Some("L-T")).cells);
    for _fig in 7..=9 {
        let _ = writeln!(s, "{:?}", fit(t)?);
    }
    let _ = writeln!(s, "{:?}", temperature_analysis(out));
    Ok(s)
}

/// One stream operation: the study fed point by point through
/// `run_stream`. Returns the run and the wall from the first fed record to
/// the final output (the run's wall minus its `study/simulate` span: the
/// simulator stands in for the taxis and is the source, not the system).
pub fn stream_pass(cfg: &StudyConfig) -> Result<(StreamRun, f64), Error> {
    let start = Instant::now();
    let run = run_stream(cfg.clone(), &StreamConfig::default(), None)?;
    let wall = start.elapsed().as_secs_f64();
    let source = run.output.metrics.span_wall_s("study/simulate");
    Ok((run, wall - source))
}

fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counter(name).unwrap_or(0) as f64
}

/// A study pass with every stage call timed from outside. Returns the
/// output, the pass wall and the per-layer figures read from the timers
/// and from the spans and counters the pipeline emits.
pub fn traced_pass(
    cfg: &StudyConfig,
    store: &Path,
    layers: &mut Layers,
) -> Result<(StudyOutput, f64), Error> {
    let pass_start = Instant::now();
    let mut lap = Instant::now();
    let mut split = |name: &str, layers: &mut Layers| {
        layers.insert(name.to_string(), lap.elapsed().as_secs_f64());
        lap = Instant::now();
    };
    let sim = Study::new(cfg.clone()).simulate()?;
    split("stage.simulate_s", layers);
    sim.save_store(store)?;
    split("store.encode_s", layers);
    let cleaned = sim.clean()?;
    split("cleaning.clean_s", layers);
    let od = cleaned.analyze_od()?;
    split("stage.od_s", layers);
    let out = od.match_fuse()?;
    split("stage.match_fuse_s", layers);
    let mut times = AnalysisTimes::default();
    analysis(&out, &mut times)?;
    split("stage.analysis_s", layers);
    let wall = pass_start.elapsed().as_secs_f64();

    let m = &out.metrics;
    let analysis_s = layers["stage.analysis_s"];
    for (name, value) in [
        ("roadnet.city_s", m.span_wall_s("study/simulate/city")),
        ("traces.fleet_s", m.span_wall_s("study/simulate/fleet")),
        ("traces.raw_points", counter(m, "sim.raw_points")),
        ("traces.shard_units", counter(m, "exec.shard_units")),
        ("store.persist_s", m.span_wall_s("study/simulate/persist")),
        (
            "store.encode_bytes",
            std::fs::metadata(store).map_or(0.0, |md| md.len() as f64),
        ),
        ("cleaning.segments_kept", out.cleaning.segments_kept as f64),
        (
            "cleaning.kept_frac",
            out.cleaning.segments_kept as f64
                / (out.cleaning.segments_kept
                    + out.cleaning.segments_too_few_points
                    + out.cleaning.segments_too_long)
                    .max(1) as f64,
        ),
        ("od.funnel_s", m.span_wall_s("study/od/funnel")),
        ("od.transitions_s", m.span_wall_s("study/od/transitions")),
        ("od.post_filtered", counter(m, "od.post_filtered")),
        (
            "od.yield_frac",
            counter(m, "od.post_filtered") / counter(m, "od.transitions_total").max(1.0),
        ),
        ("matching.index_s", m.span_wall_s("study/match_fuse/index")),
        (
            "matching.candidates_scored",
            counter(m, "match.candidates_scored"),
        ),
        (
            "matching.astar_expanded",
            counter(m, "match.astar_expanded"),
        ),
        (
            "matching.matched_frac",
            counter(m, "match.points_matched")
                / (counter(m, "match.points_matched") + counter(m, "match.points_unmatched"))
                    .max(1.0),
        ),
        (
            "matching.cache_hit_rate",
            m.gauge("match.cache_hit_rate").unwrap_or(0.0),
        ),
        ("stats.lmm_fit_s", times.lmm_s),
        ("core.grid_s", times.grid_s),
        ("core.render_s", analysis_s - times.lmm_s - times.grid_s),
    ] {
        layers.insert(name.to_string(), value);
    }
    exec_layers(m, "", layers);
    Ok((out, wall))
}

/// `exec.*` figures of a run: tasks, steals, and the idle share of the
/// worker time of the two metered batches (clean, match).
pub fn exec_layers(m: &MetricsSnapshot, prefix: &str, layers: &mut Layers) {
    let workers = m.gauge("exec.workers").unwrap_or(1.0).max(1.0);
    let metered_s = m.span_wall_s("study/clean") + m.span_wall_s("study/match_fuse/match");
    let idle_s = counter(m, "exec.idle_us") / 1e6;
    layers.insert(format!("{prefix}exec.tasks"), counter(m, "exec.tasks"));
    layers.insert(format!("{prefix}exec.steals"), counter(m, "exec.steals"));
    layers.insert(
        format!("{prefix}exec.idle_frac"),
        idle_s / (workers * metered_s).max(1e-9),
    );
}

/// Exact duplicate uploads removed after order repair (mirrors the
/// cleaning pipeline's private step, so the probe segments the same
/// points the pipeline does).
fn dedup(points: &mut Vec<RoutePoint>) {
    points.dedup_by(|b, a| {
        b.timestamp == a.timestamp && b.pos.distance(a.pos) < 1e-9 && b.speed_kmh == a.speed_kmh
    });
}

/// Times the sub-stage functions the stage calls hide, on the outputs of
/// a traced pass: store decode, the four cleaning steps, matching versus
/// fusion. Each probe must reproduce what the pipeline produced.
pub fn probe_layers(
    cfg: &StudyConfig,
    out: &StudyOutput,
    store: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    // Store read side.
    let start = Instant::now();
    let loaded = taxitrace_store::codec::load(store, &taxitrace_store::LoadOptions::salvage())
        .map_err(|e| format!("decode probe: {e}"))?;
    layers.insert("store.decode_s".into(), start.elapsed().as_secs_f64());
    layers.insert(
        "store.decode_bytes".into(),
        std::fs::metadata(store).map_or(0.0, |md| md.len() as f64),
    );
    layers.insert(
        "store.indexed_reads".into(),
        if loaded.indexed { 1.0 } else { 0.0 },
    );
    if loaded.sessions.len() != out.store.sessions().len()
        || loaded.report.fingerprint != config_fingerprint(cfg)
    {
        return Err("decode probe: the store does not read back as written".into());
    }
    drop(loaded);

    // Cleaning: order repair, segmentation, rule-5 re-split, filters.
    let seg_cfg = &cfg.cleaning.segmentation;
    let (mut order_s, mut segment_s, mut resplit_s, mut filter_s) = (0.0, 0.0, 0.0, 0.0);
    let mut kept = 0usize;
    let mut filter_stats = FilterStats::default();
    for session in out.store.sessions() {
        let t = Instant::now();
        let (mut ordered, _) = repair_order(&session.points);
        dedup(&mut ordered);
        order_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let cols = TraceColumns::from_points(&ordered);
        let (ranges, mut report) = segment_columns(&cols, seg_cfg);
        segment_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut resplit = Vec::with_capacity(ranges.len());
        for r in ranges {
            if cols.length_m(r.clone()) > seg_cfg.rule5_trigger_m {
                resplit.extend(resplit_rule1(
                    &ordered[r.clone()],
                    r.start,
                    seg_cfg,
                    &mut report,
                ));
            } else {
                resplit.push(r);
            }
        }
        resplit_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for r in resplit {
            if cfg
                .cleaning
                .filters
                .admit_range(&cols, r, &mut filter_stats)
            {
                kept += 1;
            }
        }
        filter_s += t.elapsed().as_secs_f64();
    }
    if kept != out.cleaning.segments_kept {
        return Err(format!(
            "cleaning probe kept {kept} segments, the pipeline {}",
            out.cleaning.segments_kept
        ));
    }
    for (name, value) in [
        ("cleaning.order_s", order_s),
        ("cleaning.segment_s", segment_s),
        ("cleaning.resplit_s", resplit_s),
        ("cleaning.filter_s", filter_s),
    ] {
        layers.insert(name.into(), value);
    }

    // Matching versus fusion over the post-filtered transitions.
    let matching = resolved_matching_config(cfg);
    let index = CandidateIndex::new(&out.city.graph, &out.city.elements);
    let mut scratch = MatchScratch::new();
    let (mut match_s, mut fuse_s) = (0.0, 0.0);
    let mut records = Vec::new();
    for t in OdAnalyzer::from_city(&out.city).transitions(&out.segments) {
        let seg = &out.segments[t.segment_index];
        if !t.post_filtered || transition_anomaly(seg, &t).is_some() {
            continue;
        }
        let dest = (t.destination_point + 1).min(seg.points.len() - 1);
        let slice = taxitrace_cleaning::TripSegment {
            trip_id: seg.trip_id,
            taxi: seg.taxi,
            start_time: seg.points[t.origin_point].timestamp,
            points: seg.points[t.origin_point..=dest].to_vec(),
        };
        let start = Instant::now();
        let matched = incremental::match_trace_with(
            &mut scratch,
            &out.city.graph,
            &index,
            &slice.points,
            &matching,
        );
        match_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        records.push(TransitionRecord::fuse(
            &out.city,
            &slice,
            t.pair_label(),
            0,
            slice.points.len() - 1,
            &matched,
            out.weather.at(slice.start_time).class(),
            cfg.low_speed_kmh,
            cfg.normal_speed_frac,
        ));
        fuse_s += start.elapsed().as_secs_f64();
    }
    let same = records.len() == out.transitions.len()
        && records.iter().zip(&out.transitions).all(|(a, b)| {
            a.pair == b.pair
                && a.points.len() == b.points.len()
                && a.dist_km.to_bits() == b.dist_km.to_bits()
                && a.time_h.to_bits() == b.time_h.to_bits()
        });
    if !same {
        return Err("match/fuse probe does not reproduce the pipeline's transitions".into());
    }
    layers.insert("matching.match_s".into(), match_s);
    layers.insert("core.fuse_s".into(), fuse_s);
    Ok(())
}
