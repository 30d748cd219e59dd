//! The staged study pipeline.
//!
//! [`Study::run`] executes the paper's four stages back to back, but each
//! stage is also a first-class API step with a typed output:
//!
//! ```text
//! Study ─load(source)→ Simulated ─clean()→ Cleaned ─analyze_od()→ OdSelected
//!                                                          │
//!                                           match_fuse() ──┴─→ StudyOutput
//! ```
//!
//! `simulate()` is `load(Source::Simulate)`, and `run_from(source)` is the
//! whole chain.
//!
//! Every stage output carries a [`MetricsSnapshot`] of the observability
//! registry at that point, so callers can inspect counters and spans after
//! any prefix of the pipeline without running the rest.

use std::collections::BTreeMap;
use std::path::Path;

use taxitrace_cleaning::{
    clean_checked, AnomalyKind, CleanedSession, CleaningTotals, TripSegment,
};
use taxitrace_exec::{ExecMeter, TaskError};
use taxitrace_matching::{incremental, CandidateIndex, MatchConfig, MatchScratch};
use taxitrace_obs::{MetricsSnapshot, Registry, Span};
use taxitrace_od::{FunnelRow, OdAnalyzer, Transition};
use taxitrace_roadnet::synth::SyntheticCity;
use taxitrace_store::TripStore;
use taxitrace_traces::RawTrip;
use taxitrace_weather::WeatherModel;

use crate::config::StudyConfig;
use crate::error::Error;
use crate::quarantine::{check_budget, Quarantine, QuarantineEntry, QuarantineReason};
use crate::transitions::TransitionRecord;

/// The observability context threaded through the stages: one registry for
/// the whole run plus the executor's meter registered on it.
#[derive(Debug)]
pub(crate) struct Obs {
    pub(crate) registry: Registry,
    pub(crate) meter: ExecMeter,
}

impl Obs {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let meter = ExecMeter::new(&registry);
        Self { registry, meter }
    }
}

/// The weather model is a pure function of the study seed; regenerated on
/// resume rather than checkpointed.
fn weather_for(config: &StudyConfig) -> WeatherModel {
    WeatherModel::new(config.seed ^ 0x57EA_7E7A)
}

/// Applies the chaos plan's trace-level faults to the simulated sessions
/// (no-op without a plan). Deterministic: each session's faults are a pure
/// function of the plan seed and the trip id.
fn apply_chaos_trace_faults(
    config: &StudyConfig,
    sessions: &mut [RawTrip],
    registry: &Registry,
) {
    let Some(plan) = config.chaos.as_ref().filter(|p| p.has_trace_faults()) else {
        return;
    };
    let mut faulted = 0u64;
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for session in sessions.iter_mut() {
        if let Some(fault) = plan.apply_session(session.id.0, &mut session.points) {
            faulted += 1;
            *by_kind.entry(fault.label()).or_insert(0) += 1;
            // Resync the device trip summary with the mutated points.
            if let Some(last_ts) = session.points.iter().map(|p| p.timestamp).max() {
                session.end_time = last_ts;
                session.total_time = last_ts - session.start_time;
            }
        }
    }
    registry.counter("chaos.sessions_faulted").add(faulted);
    for (label, n) in by_kind {
        registry.counter(&format!("chaos.faults.{label}")).add(n);
    }
}

/// The stage fault policy resolved from the config (chaos overrides win):
/// `(error_budget, max_task_attempts)`. Public so the streaming ingest
/// enforces the same budget and reproduces the batch retry accounting.
pub fn resolved_fault_policy(config: &StudyConfig) -> (f64, u32) {
    let attempts = config
        .chaos
        .as_ref()
        .and_then(|p| p.max_task_attempts)
        .unwrap_or(config.fault.max_task_attempts);
    (budget_or(config, config.fault.error_budget), attempts)
}

/// A configured study, ready to run (whole or stage by stage).
#[derive(Debug, Clone)]
pub struct Study {
    pub(crate) config: StudyConfig,
}

/// Stage 1 output: the simulated world, persisted into the trip store.
#[derive(Debug)]
pub struct Simulated {
    pub config: StudyConfig,
    pub city: SyntheticCity,
    pub weather: WeatherModel,
    pub store: TripStore,
    /// Dead-letter ledger seeded by this stage. Empty for a live
    /// simulation; a [`Source::Store`] or [`Source::External`] source
    /// fills it with one entry per record lost to damage.
    pub quarantine: Quarantine,
    /// Registry snapshot taken at the end of this stage.
    pub metrics: MetricsSnapshot,
    pub(crate) obs: Obs,
}

/// Stage 2 output: cleaned trip segments plus cleaning totals.
#[derive(Debug)]
pub struct Cleaned {
    pub config: StudyConfig,
    pub city: SyntheticCity,
    pub weather: WeatherModel,
    pub store: TripStore,
    /// All cleaned trip segments (Table 3's population).
    pub segments: Vec<TripSegment>,
    pub cleaning: CleaningTotals,
    /// Dead-letter ledger of records rejected so far.
    pub quarantine: Quarantine,
    /// Registry snapshot taken at the end of this stage.
    pub metrics: MetricsSnapshot,
    pub(crate) obs: Obs,
}

/// Stage 3 output: the Table 3 funnel and the corridor transitions.
#[derive(Debug)]
pub struct OdSelected {
    pub config: StudyConfig,
    pub city: SyntheticCity,
    pub weather: WeatherModel,
    pub store: TripStore,
    pub segments: Vec<TripSegment>,
    pub cleaning: CleaningTotals,
    /// Table 3 funnel rows, one per taxi.
    pub funnel_rows: Vec<FunnelRow>,
    /// All extracted transitions (pre- and post-filtered alike).
    pub raw_transitions: Vec<Transition>,
    /// Dead-letter ledger of records rejected so far.
    pub quarantine: Quarantine,
    /// Registry snapshot taken at the end of this stage.
    pub metrics: MetricsSnapshot,
    pub(crate) obs: Obs,
}

/// Everything a study produces; the inputs of every table/figure analysis.
#[derive(Debug)]
pub struct StudyOutput {
    pub config: StudyConfig,
    pub city: SyntheticCity,
    pub weather: WeatherModel,
    pub store: TripStore,
    /// All cleaned trip segments (Table 3's population).
    pub segments: Vec<TripSegment>,
    /// Table 3 funnel rows, one per taxi.
    pub funnel_rows: Vec<FunnelRow>,
    /// Post-filtered, map-matched, attribute-fused transitions.
    pub transitions: Vec<TransitionRecord>,
    pub cleaning: CleaningTotals,
    /// Dead-letter ledger of every record the run quarantined (empty for
    /// a healthy run; inspect it to understand degraded ones).
    pub quarantine: Quarantine,
    /// Full metrics of the run: counters, gauges, histograms and spans
    /// from every stage, the executor and the matcher.
    pub metrics: MetricsSnapshot,
}

impl Study {
    /// Creates a study from a configuration.
    pub fn new(config: StudyConfig) -> Self {
        Self { config }
    }

    /// Stage 1 from the simulator: generate the city and weather, simulate
    /// the fleet and persist every session into the store.
    pub fn simulate(&self) -> Result<Simulated, Error> {
        self.load(Source::Simulate)
    }

    /// Stage 1 from any [`Source`]: validate the config, take the fleet's
    /// sessions (and the city) from the source, and persist the sessions
    /// into the store.
    pub fn load(&self, source: Source<'_>) -> Result<Simulated, Error> {
        self.load_with(|config, registry| match source {
            Source::Simulate => simulate_fleet(config, registry),
            Source::Store(path) => replay_store(config, registry, path),
            Source::External { traces, map } => ingest_external(config, registry, traces, map),
        })
    }

    /// The stage-1 scaffolding every way in shares: config validation,
    /// the `study/simulate` span, the `sim.*` counters, persisting into the
    /// store, and the source's ledger metrics and error budget. `produce`
    /// supplies the city and sessions (and opens its own child spans).
    pub(crate) fn load_with(
        &self,
        produce: impl FnOnce(&StudyConfig, &Registry) -> Result<Loaded, Error>,
    ) -> Result<Simulated, Error> {
        let config = self.config.clone();
        config.validate()?;
        let obs = Obs::new();

        let mut span = obs.registry.span("study/simulate");
        let Loaded { city, sessions, losses } = produce(&config, &obs.registry)?;
        let weather = weather_for(&config);
        obs.registry.counter("sim.sessions").add(sessions.len() as u64);
        let raw_points: usize = sessions.iter().map(|s| s.points.len()).sum();
        obs.registry.counter("sim.raw_points").add(raw_points as u64);

        let mut store = TripStore::new();
        {
            let _s = obs.registry.span("study/simulate/persist");
            store.insert_all(sessions)?;
        }
        let quarantine = match losses {
            None => Quarantine::default(),
            Some(Losses { stage, ledger, total, budget }) => {
                ledger.record_stage_metrics(&obs.registry, stage, total);
                check_budget(stage, ledger.len(), total, budget)?;
                ledger
            }
        };
        span.set_items(store.sessions().len() as u64);
        span.finish();

        let metrics = obs.registry.snapshot();
        Ok(Simulated { config, city, weather, store, quarantine, metrics, obs })
    }

    /// Runs the full pipeline: simulate → store → clean → O-D select →
    /// match → fuse. Equivalent to chaining the four stages; kept as the
    /// one-call entry point.
    pub fn run(&self) -> Result<StudyOutput, Error> {
        self.run_from(Source::Simulate)
    }

    /// Runs the full pipeline over the sessions of any [`Source`].
    pub fn run_from(&self, source: Source<'_>) -> Result<StudyOutput, Error> {
        self.load(source)?.clean()?.analyze_od()?.match_fuse()
    }
}

/// Where stage 1 takes the fleet's sessions from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// Simulate the fleet over the config's synthetic city.
    Simulate,
    /// Replay the sessions of a trip store file.
    ///
    /// The file is read through the salvage path: every verifiable record
    /// survives, while damaged ones (CRC failures, a torn tail, a header
    /// that disagrees with the body, duplicated records) are quarantined
    /// at the `store` stage with typed reasons and counted against
    /// [`crate::FaultConfig::store_error_budget`]. A store written under a
    /// different config fingerprint is refused outright — replaying it
    /// would silently produce results the config cannot explain.
    Store(&'a Path),
    /// Ingest the sessions from an external trace file, and the city from
    /// an external map file when `map` is given.
    ///
    /// The files cross the pipeline's trust boundary: they may contain
    /// arbitrary bytes. Parsing is record-framed and panic-free — every
    /// malformed line, out-of-domain field, duplicate trip claim, or
    /// dangling map reference is quarantined at the `ingest` stage with a
    /// typed reason and counted against
    /// [`crate::FaultConfig::ingest_error_budget`], so a damaged file
    /// degrades record-by-record exactly like a damaged store file in the
    /// salvage path. Only file-level failures (unreadable header, a map
    /// with no usable ways) are fatal, as [`Error::Ingest`].
    ///
    /// Without `map`, the synthetic city of the config is used — so an
    /// export → ingest round trip of the traces alone reproduces the batch
    /// study byte-for-byte.
    External { traces: &'a Path, map: Option<&'a Path> },
}

/// What one source hands the shared stage-1 scaffolding.
pub(crate) struct Loaded {
    pub(crate) city: SyntheticCity,
    pub(crate) sessions: Vec<RawTrip>,
    /// The records a source reading outside bytes lost; `None` for sources
    /// that cannot lose records.
    pub(crate) losses: Option<Losses>,
}

/// A source's dead-letter ledger, judged against its own error budget.
pub(crate) struct Losses {
    stage: &'static str,
    ledger: Quarantine,
    /// Records the source read, lost ones included.
    total: usize,
    budget: f64,
}

/// The config's city, generated under the `study/simulate/city` span.
pub(crate) fn synth_city(config: &StudyConfig, registry: &Registry) -> SyntheticCity {
    let _s = registry.span("study/simulate/city");
    taxitrace_roadnet::synth::generate(&config.city)
}

/// A stage's error budget: the chaos plan's override, else `default`.
fn budget_or(config: &StudyConfig, default: f64) -> f64 {
    config.chaos.as_ref().and_then(|p| p.error_budget).unwrap_or(default)
}

fn simulate_fleet(config: &StudyConfig, registry: &Registry) -> Result<Loaded, Error> {
    let city = synth_city(config, registry);
    let fleet = {
        let _s = registry.span("study/simulate/fleet");
        taxitrace_traces::simulate_fleet(&city, &weather_for(config), &config.fleet)
    };
    registry.counter("exec.shard_units").add(fleet.shard_count as u64);
    registry.counter("sim.routed_legs").add(fleet.routed_legs);
    registry.counter("sim.steps").add(fleet.steps);
    registry.counter("sim.route_expanded").add(fleet.route_expanded);
    let mut sessions = fleet.sessions;
    apply_chaos_trace_faults(config, &mut sessions, registry);
    Ok(Loaded { city, sessions, losses: None })
}

fn replay_store(config: &StudyConfig, registry: &Registry, path: &Path) -> Result<Loaded, Error> {
    let city = synth_city(config, registry);
    let loaded = {
        let _s = registry.span("study/simulate/load_store");
        taxitrace_store::codec::load(path, &taxitrace_store::LoadOptions::salvage())?
    };
    if loaded.indexed {
        registry.counter("store.indexed_reads").add(1);
    }
    let report = loaded.report;
    let expected = crate::checkpoint::config_fingerprint(config);
    if report.fingerprint != 0 && report.fingerprint != expected {
        return Err(Error::Store(taxitrace_store::StoreError::BadFormat(format!(
            "store {} was written under config fingerprint {:#018x}, expected {:#018x}",
            path.display(),
            report.fingerprint,
            expected
        ))));
    }

    let mut ledger = Quarantine::default();
    for damage in &report.damage {
        ledger.push(QuarantineEntry {
            stage: "store".into(),
            record: damage.index,
            reason: damage.kind.into(),
            detail: damage.detail.clone(),
        });
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut sessions = Vec::with_capacity(loaded.sessions.len());
    for session in loaded.sessions {
        if seen.insert(session.id.0) {
            sessions.push(session);
        } else {
            // A duplicated on-disk frame decodes fine but would poison the
            // store; quarantine the extra occurrence.
            ledger.push(QuarantineEntry {
                stage: "store".into(),
                record: session.id.0,
                reason: QuarantineReason::CorruptRecord,
                detail: format!("duplicate on-disk record for trip {}", session.id.0),
            });
        }
    }

    let total = report.records_valid as usize + report.damage.len();
    registry.counter("store.records_total").add(total as u64);
    registry.counter("store.records_valid").add(sessions.len() as u64);
    if !ledger.is_empty() {
        registry.counter("store.corrupt_records").add(ledger.len() as u64);
    }
    for (label, n) in ledger.by_reason() {
        registry.counter(&format!("store.damaged.{label}")).add(n as u64);
    }
    let budget = budget_or(config, config.fault.store_error_budget);
    Ok(Loaded { city, sessions, losses: Some(Losses { stage: "store", ledger, total, budget }) })
}

fn ingest_external(
    config: &StudyConfig,
    registry: &Registry,
    trace_path: &Path,
    map_path: Option<&Path>,
) -> Result<Loaded, Error> {
    let read = |path: &Path| {
        std::fs::read(path).map_err(|source| taxitrace_ingest::IngestError::Io {
            path: path.display().to_string(),
            source,
        })
    };
    let mut ledger = Quarantine::default();
    let mut total = 0usize;
    let mut file_issues = |path: &Path, issues: Vec<taxitrace_ingest::RecordIssue>| {
        for issue in issues {
            ledger.push(QuarantineEntry {
                stage: "ingest".into(),
                record: issue.record,
                reason: issue.reason.into(),
                detail: format!("{}: {}", path.display(), issue.detail),
            });
        }
    };

    let city = match map_path {
        None => synth_city(config, registry),
        Some(path) => {
            let _s = registry.span("study/simulate/ingest_map");
            let parsed = taxitrace_ingest::parse_osmx(&read(path)?)?;
            registry.counter("ingest.map.records_total").add(parsed.records_total as u64);
            total += parsed.records_total;
            file_issues(path, parsed.issues);
            parsed.city
        }
    };
    let traces = {
        let _s = registry.span("study/simulate/ingest_traces");
        taxitrace_ingest::parse_trace_csv(&read(trace_path)?)
    };
    total += traces.records_total;
    file_issues(trace_path, traces.issues);

    registry.counter("ingest.records_total").add(total as u64);
    registry.counter("ingest.records_valid").add((total - ledger.len()) as u64);
    registry.counter("ingest.quarantined_total").add(ledger.len() as u64);
    registry.counter("ingest.sessions").add(traces.sessions.len() as u64);
    for (label, n) in ledger.by_reason() {
        registry.counter(&format!("ingest.damaged.{label}")).add(n as u64);
    }
    let budget = budget_or(config, config.fault.ingest_error_budget);
    Ok(Loaded {
        city,
        sessions: traces.sessions,
        losses: Some(Losses { stage: "ingest", ledger, total, budget }),
    })
}

impl Simulated {
    /// Persists this stage's sessions as a v3 store file (atomic write,
    /// per-record CRCs, offset index), tagged with the config fingerprint so
    /// a [`Source::Store`] replay can refuse a mismatched config.
    pub fn save_store(&self, path: &Path) -> Result<(), Error> {
        let fingerprint = crate::checkpoint::config_fingerprint(&self.config);
        taxitrace_store::codec::save_sessions_tagged(
            path,
            self.store.sessions(),
            fingerprint,
        )?;
        Ok(())
    }

    /// The run's metrics registry. The streaming ingest emits its
    /// `stream.*` counters and gauges here so they land in the same
    /// snapshot (and JSON schema) as the stage metrics.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// Streaming support: assembles the stage-2 output from per-session
    /// cleaning results produced out of band (the watermark-closed trips
    /// of `taxitrace-stream`), running the same metric emission and
    /// budget accounting as [`Simulated::clean`]. `stage_quarantine` is
    /// appended to the carried ledger in the order given; only its
    /// `clean`-stage entries count against the clean error budget (the
    /// stream stage enforces its own budget before calling).
    pub fn assemble_cleaned(
        self,
        segments: Vec<TripSegment>,
        cleaning: CleaningTotals,
        stage_quarantine: Vec<QuarantineEntry>,
    ) -> Result<Cleaned, Error> {
        let span = self.obs.registry.span("study/clean");
        self.finish_clean(span, segments, cleaning, stage_quarantine)
    }

    /// Stage 2: clean every session (parallel per session; deterministic
    /// because results are folded in input order).
    ///
    /// Every session runs as an isolated, fallible task: a panicking task
    /// or a session whose cleaned output violates the post-cleaning
    /// invariants ([`clean_checked`]) lands in the [`Quarantine`] ledger
    /// instead of aborting the run — up to the configured error budget.
    /// The ledger carried in from stage 1 (store salvage damage) is kept;
    /// this stage's budget is judged only on its own additions.
    pub fn clean(self) -> Result<Cleaned, Error> {
        let span = self.obs.registry.span("study/clean");
        let config = &self.config;
        let (_, max_attempts) = resolved_fault_policy(config);
        let task = |_: &mut (), session: &RawTrip| -> Result<CleanedSession, (AnomalyKind, String)> {
            if let Some(message) = injected_clean_panic(config, session.id.0) {
                // lint:allow(panic-free-library): chaos-injected fault, isolated by the executor
                panic!("{message}");
            }
            clean_checked(session, &config.cleaning, &config.fault.anomaly)
        };
        // Budget enforcement happens in the shared tail, against the
        // quarantined fraction.
        let (slots, _) = taxitrace_exec::try_par_map_init_metered(
            self.store.sessions(),
            || (),
            task,
            max_attempts,
            &self.obs.meter,
        );

        let mut cleaning = CleaningTotals::default();
        let mut segments: Vec<TripSegment> = Vec::new();
        let mut failures = Vec::new();
        for (slot, session) in slots.into_iter().zip(self.store.sessions()) {
            match slot {
                Ok(cleaned) => {
                    cleaning.absorb(&cleaned.stats);
                    segments.extend(cleaned.segments);
                }
                Err(error) => failures.push(clean_failure(session.id.0, error)),
            }
        }
        self.finish_clean(span, segments, cleaning, failures)
    }

    /// The stage-2 tail both [`Simulated::clean`] and
    /// [`Simulated::assemble_cleaned`] end in: append the stage's ledger
    /// entries, emit the cleaning and quarantine metrics, judge the clean
    /// budget and snapshot.
    fn finish_clean(
        self,
        mut span: Span,
        segments: Vec<TripSegment>,
        cleaning: CleaningTotals,
        stage_quarantine: Vec<QuarantineEntry>,
    ) -> Result<Cleaned, Error> {
        let Simulated { config, city, weather, store, mut quarantine, obs, .. } = self;
        let (error_budget, _) = resolved_fault_policy(&config);
        let total = store.sessions().len();
        let clean_added = stage_quarantine.iter().filter(|e| e.stage == "clean").count();
        for entry in stage_quarantine {
            quarantine.push(entry);
        }
        cleaning.record_metrics(&obs.registry);
        quarantine.record_stage_metrics(&obs.registry, "clean", total);
        check_budget("clean", clean_added, total, error_budget)?;
        span.set_items(segments.len() as u64);
        span.finish();

        let metrics = obs.registry.snapshot();
        Ok(Cleaned { config, city, weather, store, segments, cleaning, quarantine, metrics, obs })
    }
}

/// The chaos plan's injected clean-task panic for `trip`: the panic
/// message when the plan picks this trip, else `None`. The batch task
/// raises it for the executor to isolate; the stream, which runs no
/// executor, files it directly through [`clean_failure`].
pub fn injected_clean_panic(config: &StudyConfig, trip: u64) -> Option<String> {
    let one_in = config.chaos.as_ref().map_or(0, |p| p.task_panic_one_in);
    (one_in > 0 && trip.is_multiple_of(one_in))
        .then(|| format!("chaos: injected clean-task panic (trip {trip})"))
}

/// The `clean` ledger entry for a session whose clean task failed: the
/// panic message, or the anomaly with the executor's "(after N attempts)"
/// suffix when it was retried. Public so the stream's per-trip clean files
/// exactly the entries the batch fold does.
pub fn clean_failure(record: u64, error: TaskError<(AnomalyKind, String)>) -> QuarantineEntry {
    let (reason, detail) = match error {
        TaskError::Panicked { message } => (QuarantineReason::TaskPanic, message),
        TaskError::Failed { error: (kind, detail), attempts } => (
            kind.into(),
            if attempts > 1 { format!("{detail} (after {attempts} attempts)") } else { detail },
        ),
    };
    QuarantineEntry { stage: "clean".into(), record, reason, detail }
}

impl Cleaned {
    /// Stage 3: the O-D funnel (Table 3) and corridor-transition
    /// extraction over the cleaned segments.
    ///
    /// Transitions violating temporal/spatial sanity (non-positive span
    /// duration, non-finite coordinates) are quarantined instead of being
    /// handed to the matcher, up to the error budget.
    pub fn analyze_od(self) -> Result<OdSelected, Error> {
        let Cleaned {
            config,
            city,
            weather,
            store,
            segments,
            cleaning,
            mut quarantine,
            obs,
            ..
        } = self;

        let mut span = obs.registry.span("study/od");
        let (error_budget, _) = resolved_fault_policy(&config);
        let analyzer = OdAnalyzer::from_city(&city);
        let (extracted, roads_crossed) = {
            let _s = obs.registry.span("study/od/transitions");
            analyzer.scan(&segments)
        };
        let funnel_rows = {
            let _s = obs.registry.span("study/od/funnel");
            analyzer.funnel(&segments, &roads_crossed, &extracted)
        };
        let total = extracted.len();
        let before = quarantine.len();
        let mut raw_transitions = Vec::with_capacity(total);
        for t in extracted {
            match transition_anomaly(&segments[t.segment_index], &t) {
                None => raw_transitions.push(t),
                Some((reason, detail)) => quarantine.push(QuarantineEntry {
                    stage: "od".into(),
                    record: segments[t.segment_index].trip_id.0,
                    reason,
                    detail,
                }),
            }
        }
        taxitrace_od::record_funnel_metrics(&funnel_rows, &obs.registry);
        quarantine.record_stage_metrics(&obs.registry, "od", total);
        check_budget("od", quarantine.len() - before, total, error_budget)?;
        span.set_items(raw_transitions.len() as u64);
        span.finish();

        let metrics = obs.registry.snapshot();
        Ok(OdSelected {
            config,
            city,
            weather,
            store,
            segments,
            cleaning,
            funnel_rows,
            raw_transitions,
            quarantine,
            metrics,
            obs,
        })
    }
}

/// O-D-stage record invariants: a transition slice must span positive time
/// on finite coordinates. Impossible for healthy cleaned data (timestamps
/// are clamped non-decreasing over spans of many points); reachable only
/// for trace damage that slipped below the per-session anomaly thresholds.
/// `seg` is the transition's parent segment (the streaming path checks
/// against trip-local segments, the batch path against the global list).
pub fn transition_anomaly(
    seg: &TripSegment,
    t: &Transition,
) -> Option<(QuarantineReason, String)> {
    let dest = (t.destination_point + 1).min(seg.points.len() - 1);
    let span = &seg.points[t.origin_point..=dest];
    for p in span {
        if !p.pos.x.is_finite() || !p.pos.y.is_finite() {
            return Some((
                QuarantineReason::PositionJump,
                format!("non-finite coordinate at point {}", p.point_id),
            ));
        }
    }
    let duration = span[span.len() - 1].timestamp - span[0].timestamp;
    if duration.secs() <= 0 {
        return Some((
            QuarantineReason::ClockSkew,
            format!("transition spans {} s over {} points", duration.secs(), span.len()),
        ));
    }
    None
}

/// Matches and fuses one corridor transition over its parent segment.
/// The boolean reports whether the gap-fill search blew its expansion
/// budget somewhere in this slice (the record is then quarantined as an
/// unmatched gap).
#[allow(clippy::too_many_arguments)] // the stage-4 working set, spelled out
fn fuse_transition(
    city: &SyntheticCity,
    weather: &WeatherModel,
    config: &StudyConfig,
    matching_config: &MatchConfig,
    index: &CandidateIndex,
    scratch: &mut MatchScratch,
    seg: &TripSegment,
    t: &Transition,
) -> (TransitionRecord, bool) {
    let budget_exhausted_before = scratch.gaps_budget_exhausted;
    // Work on the transition slice (origin..=destination). The crossing
    // indices mark the points *before* the corridor-entry steps, so
    // include one more point at the destination side to cover the
    // arrival.
    let dest = (t.destination_point + 1).min(seg.points.len() - 1);
    let slice = TripSegment {
        trip_id: seg.trip_id,
        taxi: seg.taxi,
        start_time: seg.points[t.origin_point].timestamp,
        points: seg.points[t.origin_point..=dest].to_vec(),
    };
    let matched = incremental::match_trace_with(
        scratch,
        &city.graph,
        index,
        &slice.points,
        matching_config,
    );
    let temp_class = weather.at(slice.start_time).class();
    let record = TransitionRecord::fuse(
        city,
        &slice,
        t.pair_label(),
        0,
        slice.points.len() - 1,
        &matched,
        temp_class,
        config.low_speed_kmh,
        config.normal_speed_frac,
    );
    (record, scratch.gaps_budget_exhausted > budget_exhausted_before)
}

/// The matching configuration stage 4 actually runs with: the study's,
/// with the chaos plan's gap-fill budget override applied.
pub fn resolved_matching_config(config: &StudyConfig) -> MatchConfig {
    let mut matching_config = config.matching;
    if let Some(budget) =
        config.chaos.as_ref().and_then(|p| p.gap_fill_max_expansions)
    {
        matching_config.gap_fill_max_expansions = budget;
    }
    matching_config
}

impl OdSelected {
    /// Stage 4: map-match and fuse the post-filtered transitions
    /// ("Only cleared and filtered transitions going through the city
    /// centre are map-matched" — §IV-E).
    pub fn match_fuse(self) -> Result<StudyOutput, Error> {
        let OdSelected {
            config,
            city,
            weather,
            store,
            segments,
            cleaning,
            funnel_rows,
            raw_transitions,
            mut quarantine,
            obs,
            ..
        } = self;

        let mut span = obs.registry.span("study/match_fuse");
        let (error_budget, _) = resolved_fault_policy(&config);
        // The gap-fill search budget; a chaos plan can shrink it to force
        // the fallback path on a normal-sized run.
        let matching_config = resolved_matching_config(&config);
        let index = {
            let _s = obs.registry.span("study/match_fuse/index");
            CandidateIndex::new(&city.graph, &city.elements)
        };
        let post: Vec<&Transition> =
            raw_transitions.iter().filter(|t| t.post_filtered).collect();
        let fuse_one =
            |scratch: &mut MatchScratch, t: &Transition| -> (TransitionRecord, bool) {
                fuse_transition(
                    &city,
                    &weather,
                    &config,
                    &matching_config,
                    &index,
                    scratch,
                    &segments[t.segment_index],
                    t,
                )
            };
        // Match and fuse in parallel, preserving order; each worker keeps
        // one scratch (search arrays and audit counters) across its share.
        let (fused, scratches): (Vec<(TransitionRecord, bool)>, Vec<MatchScratch>) = {
            let _s = obs.registry.span("study/match_fuse/match");
            taxitrace_exec::par_map_init_metered(
                &post,
                MatchScratch::new,
                |scratch, t| fuse_one(scratch, t),
                &obs.meter,
            )
        };
        let total = fused.len();
        let before = quarantine.len();
        let mut transitions = Vec::with_capacity(total);
        for ((record, budget_exhausted), t) in fused.into_iter().zip(&post) {
            if budget_exhausted {
                quarantine.push(QuarantineEntry {
                    stage: "match_fuse".into(),
                    record: segments[t.segment_index].trip_id.0,
                    reason: QuarantineReason::UnmatchedGap,
                    detail: format!(
                        "gap-fill budget ({} expansions) exhausted on pair {}",
                        matching_config.gap_fill_max_expansions,
                        t.pair_label()
                    ),
                });
            } else {
                transitions.push(record);
            }
        }
        taxitrace_matching::record_scratch_metrics(&scratches, &obs.registry);
        quarantine.record_stage_metrics(&obs.registry, "match_fuse", total);
        check_budget("match_fuse", quarantine.len() - before, total, error_budget)?;
        span.set_items(transitions.len() as u64);
        span.finish();

        let metrics = obs.registry.snapshot();
        Ok(StudyOutput {
            config,
            city,
            weather,
            store,
            segments,
            funnel_rows,
            transitions,
            cleaning,
            quarantine,
            metrics,
        })
    }
}

impl StudyOutput {
    /// Table 3 rows.
    pub fn funnel(&self) -> &[FunnelRow] {
        &self.funnel_rows
    }

    /// Transitions of one direction pair ("T-S" etc.).
    pub fn transitions_of_pair<'a>(
        &'a self,
        pair: &'a str,
    ) -> impl Iterator<Item = &'a TransitionRecord> + 'a {
        self.transitions.iter().filter(move |t| t.pair == pair)
    }

    /// The studied pair labels present in the output, sorted.
    pub fn pairs(&self) -> Vec<String> {
        let unique: std::collections::BTreeSet<&str> =
            self.transitions.iter().map(|t| t.pair.as_str()).collect();
        unique.into_iter().map(str::to_owned).collect()
    }

    /// Total measured point speeds across all fused transitions (the
    /// paper reports 30 469 at full scale).
    pub fn total_transition_points(&self) -> usize {
        self.transitions.iter().map(|t| t.points.len()).sum()
    }
}

/// Shared test fixture: one moderately sized study reused by every test in
/// this crate (running the pipeline per test would dominate test time).
#[cfg(test)]
pub(crate) fn test_output() -> &'static StudyOutput {
    use std::sync::OnceLock;
    static OUT: OnceLock<StudyOutput> = OnceLock::new();
    OUT.get_or_init(|| {
        Study::new(StudyConfig::scaled(7, 0.15)).run().expect("study pipeline")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudyConfig;

    fn output() -> &'static StudyOutput {
        super::test_output()
    }

    #[test]
    fn pipeline_produces_transitions() {
        let out = output();
        assert!(out.cleaning.sessions > 50, "sessions {}", out.cleaning.sessions);
        assert!(!out.segments.is_empty());
        assert!(!out.funnel_rows.is_empty());
        assert!(
            !out.transitions.is_empty(),
            "no transitions survived the funnel (segments: {})",
            out.segments.len()
        );
        assert!(out.total_transition_points() > 100);
    }

    #[test]
    fn funnel_rows_monotonic() {
        let out = output();
        for row in out.funnel() {
            assert!(row.filtered_cleaned <= row.segments_total);
            assert!(row.within_center <= row.transitions_total);
            assert!(row.post_filtered <= row.within_center);
        }
        // Post-filtered totals match the fused transition count.
        let funnel_total: usize = out.funnel().iter().map(|r| r.post_filtered).sum();
        assert_eq!(funnel_total, out.transitions.len());
    }

    #[test]
    fn transitions_have_fused_attributes() {
        let out = output();
        for t in &out.transitions {
            assert!(t.points.len() >= 2);
            assert!(!t.elements.is_empty(), "matched element path");
            assert!(t.dist_km > 0.5 && t.dist_km < 10.0, "distance {}", t.dist_km);
            assert!(t.time_h > 0.01 && t.time_h < 1.0, "time {}", t.time_h);
            assert!((0.0..=100.0).contains(&t.low_speed_pct));
            assert!((0.0..=100.0).contains(&t.normal_speed_pct));
            assert!(t.fuel_ml >= 0.0);
            assert!(t.junctions >= 1, "junctions {}", t.junctions);
        }
        // At least some transitions pass traffic lights.
        let with_lights = out.transitions.iter().filter(|t| t.traffic_lights > 0).count();
        assert!(with_lights * 2 > out.transitions.len());
    }

    #[test]
    fn only_studied_pairs_present() {
        let out = output();
        for p in out.pairs() {
            assert!(
                ["T-S", "S-T", "T-L", "L-T"].contains(&p.as_str()),
                "unexpected pair {p}"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Study::new(StudyConfig::quick(7)).run().expect("study");
        let b = Study::new(StudyConfig::quick(7)).run().expect("study");
        assert_eq!(a.transitions.len(), b.transitions.len());
        assert_eq!(a.total_transition_points(), b.total_transition_points());
        let c = Study::new(StudyConfig::quick(8)).run().expect("study");
        assert_ne!(
            (a.transitions.len(), a.total_transition_points()),
            (c.transitions.len(), c.total_transition_points())
        );
    }

    #[test]
    fn invalid_config_fails_fast() {
        let mut cfg = StudyConfig::quick(7);
        cfg.fleet.legs_per_taxi.clear();
        match Study::new(cfg).simulate() {
            Err(err) => assert!(matches!(err, Error::Config(_)), "got {err}"),
            Ok(_) => panic!("zero taxis must fail"),
        }
    }

    #[test]
    fn stage_metrics_cover_the_pipeline() {
        let out = output();
        let m = &out.metrics;
        // One counter per stage family, plus the executor's.
        assert!(m.counter("sim.sessions").is_some_and(|v| v > 0));
        assert!(m.counter("clean.sessions").is_some_and(|v| v > 0));
        assert!(m.counter("od.transitions_total").is_some_and(|v| v > 0));
        assert!(m.counter("match.traces").is_some_and(|v| v > 0));
        assert!(m.counter("exec.tasks").is_some_and(|v| v > 0));
        // Spans exist for all four stages and nest under them.
        for path in ["study/simulate", "study/clean", "study/od", "study/match_fuse"] {
            assert!(m.span(path).is_some(), "missing span {path}");
        }
        assert!(m.span("study/match_fuse/match").is_some());
        // Counters agree with the carried outputs.
        assert_eq!(m.counter("clean.sessions"), Some(out.cleaning.sessions as u64));
        assert_eq!(
            m.counter("match.traces"),
            Some(out.transitions.len() as u64)
        );
    }

    /// The staged API is `run()` expressed stepwise: running the stages by
    /// hand must reproduce `run()`'s output exactly.
    #[test]
    fn staged_api_equals_run() {
        let study = Study::new(StudyConfig::quick(11));
        let whole = study.run().expect("run");
        let staged = study
            .simulate()
            .expect("simulate")
            .clean()
            .expect("clean")
            .analyze_od()
            .expect("analyze_od")
            .match_fuse()
            .expect("match_fuse");
        assert_eq!(staged.segments.len(), whole.segments.len());
        assert_eq!(staged.funnel_rows, whole.funnel_rows);
        assert_eq!(staged.transitions.len(), whole.transitions.len());
        assert_eq!(
            staged.total_transition_points(),
            whole.total_transition_points()
        );
        assert_eq!(staged.cleaning, whole.cleaning);
        // Deterministic metric counters agree too (walls differ, counts not).
        for name in [
            "sim.sessions",
            "clean.segments_kept",
            "od.post_filtered",
            "match.traces",
            "match.astar_expanded",
        ] {
            assert_eq!(
                staged.metrics.counter(name),
                whole.metrics.counter(name),
                "counter {name} diverged between staged and run()"
            );
        }
    }

    /// Intermediate stage outputs carry snapshots of their own stage.
    #[test]
    fn intermediate_snapshots_grow_monotonically() {
        let study = Study::new(StudyConfig::quick(13));
        let sim = study.simulate().expect("simulate");
        assert!(sim.metrics.counter("sim.sessions").is_some_and(|v| v > 0));
        assert!(sim.metrics.counter("clean.sessions").is_none());
        let cleaned = sim.clean().expect("clean");
        assert!(cleaned.metrics.counter("clean.sessions").is_some_and(|v| v > 0));
        assert!(cleaned.metrics.counter("od.taxis").is_none());
        let od = cleaned.analyze_od().expect("analyze_od");
        assert!(od.metrics.counter("od.taxis").is_some_and(|v| v > 0));
        assert!(od.metrics.counter("match.traces").is_none());
        assert!(!od.raw_transitions.is_empty());
    }
}
