//! `taxitrace-core`: the paper's pipeline, end to end.
//!
//! This crate composes every substrate into the study of *"Revealing
//! reliable information from taxi traces: from raw data to information
//! discovery"* (ICDE-W 2022):
//!
//! ```text
//! synthetic Oulu map ─┐
//! road weather ───────┼─► fleet simulator ─► trip store
//!                     │         │
//!                     │         ▼
//!                     │   cleaning (§IV-B/C): order repair, Table 2
//!                     │   segmentation, filters
//!                     │         │
//!                     │         ▼
//!                     │   O-D selection (§IV-D): thick geometry,
//!                     │   transitions, Table 3 funnel
//!                     │         │
//!                     │         ▼
//!                     └─► map-matching (§IV-E) + attribute fusion (§IV-F)
//!                               │
//!                               ▼
//!                  analyses (§V/VI): Table 4, Table 5, Figs. 3–10
//! ```
//!
//! [`Study`] runs the whole pipeline from one seed; [`StudyOutput`] carries
//! the intermediate products; the analysis modules regenerate each table
//! and figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use taxitrace_core::{Study, StudyConfig};
//!
//! let config = StudyConfig::builder(7).scale(0.05).build().expect("valid config");
//! let output = Study::new(config).run().expect("pipeline");
//! let table3 = output.funnel();
//! assert!(!table3.is_empty());
//! ```
//!
//! The pipeline can also be driven stage by stage — each stage returns a
//! typed output carrying a metrics snapshot:
//!
//! ```
//! use taxitrace_core::{Study, StudyConfig};
//!
//! let sim = Study::new(StudyConfig::quick(7)).simulate().expect("simulate");
//! assert!(sim.metrics.counter("sim.sessions").is_some());
//! let cleaned = sim.clean().expect("clean");
//! assert!(!cleaned.segments.is_empty());
//! ```
//!
//! [`Study::load`] is the one way into stage 1 for every [`Source`] (the
//! simulator, a trip store file, or untrusted external files), and
//! [`Study::run_from`] runs the whole pipeline from any of them.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod checkpoint;
mod coach;
mod config;
mod error;
mod experiment;
mod export;
mod fingerprint;
mod gridstats;
mod mixedanalysis;
mod quarantine;
mod queryapi;
mod results;
mod seasonal;
mod transitions;

pub use checkpoint::config_fingerprint;
pub use coach::{coach_report, CoachConfig, CoachEvent, TripReport};
pub use export::export_csv;
pub use fingerprint::{fnv1a, fnv1a_seeded, FNV_OFFSET};
pub use config::{ConfigError, FaultConfig, StudyConfig, StudyConfigBuilder};
pub use error::Error;
pub use experiment::{
    clean_failure, injected_clean_panic, resolved_fault_policy, resolved_matching_config,
    transition_anomaly, Cleaned, OdSelected, Simulated, Source, Study, StudyOutput,
};
pub use quarantine::{check_budget, Quarantine, QuarantineEntry, QuarantineReason};
pub use taxitrace_traces::FaultPlan;
// The executor's task-failure type, as [`clean_failure`] takes it.
pub use taxitrace_exec::TaskError;
pub use taxitrace_cleaning::CleaningTotals;
pub use gridstats::{CellStat, GridIndex, GridStats, Table5, Table5Class};
pub use mixedanalysis::{mixed_model, mixed_model_with_features, CellEffect, MixedResults};
pub use queryapi::{
    answer, escape_json, CellSpeedRow, OdFlowRow, QueryEngine, QueryError, QueryRequest,
    QueryResponse, TripSummary,
};
pub use results::{
    render_table1, render_table3, render_table4, render_table5, Table4, Table4Row,
};
pub use seasonal::{
    directional_speeds, seasonal_deltas, seasonal_speeds, temperature_analysis,
    DirectionalSplit, Fig10Cell, SeasonalDelta,
};
pub use transitions::{junctions_along, signalized_along, TransitionRecord};
