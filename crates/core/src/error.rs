//! The workspace-level error type of the staged study pipeline.
//!
//! Every fallible step on the `Study` → `repro` path returns
//! [`enum@Error`] instead of panicking: configuration validation, store
//! persistence, graph construction, model fitting and result export.

use std::fmt;
use std::io;

use taxitrace_ingest::IngestError;
use taxitrace_roadnet::GraphError;
use taxitrace_stats::LmmError;
use taxitrace_store::StoreError;

use crate::config::ConfigError;

/// Any failure of the study pipeline or its analyses.
#[derive(Debug)]
pub enum Error {
    /// Invalid study configuration (see [`ConfigError`]).
    Config(ConfigError),
    /// Trip-store persistence failed.
    Store(StoreError),
    /// Road-graph construction failed.
    Graph(GraphError),
    /// External-format ingestion failed at the file level (unreadable
    /// header, nothing salvageable). Per-record damage never raises this
    /// — it degrades into the quarantine ledger instead.
    Ingest(IngestError),
    /// Mixed-model fit failed (degenerate design, too few observations).
    Lmm(LmmError),
    /// File I/O failed (CSV export, metrics dump).
    Io { path: String, source: io::Error },
    /// A pipeline invariant did not hold for this input.
    Pipeline(String),
    /// A stage quarantined more than its error budget allows. The run's
    /// data quality is too degraded to report results from; everything up
    /// to the budget is tolerated with degradation metrics instead.
    BudgetExceeded {
        /// Stage that blew its budget
        /// (`ingest`/`store`/`clean`/`od`/`match_fuse`).
        stage: &'static str,
        /// Records quarantined by the stage.
        quarantined: usize,
        /// Records the stage processed.
        total: usize,
        /// Maximum tolerated quarantined fraction.
        budget: f64,
    },
    /// A chaos plan killed the run after the named stage (the stage's
    /// checkpoint is on disk; calling `Study::run_with_checkpoints` again
    /// recovers from here).
    InjectedKill {
        /// The completed stage after which the kill fired.
        stage: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => write!(f, "invalid study configuration: {e}"),
            Error::Store(e) => write!(f, "trip store error: {e}"),
            Error::Graph(e) => write!(f, "road graph error: {e}"),
            Error::Ingest(e) => write!(f, "external input rejected: {e}"),
            Error::Lmm(e) => write!(f, "mixed model error: {e}"),
            Error::Io { path, source } => write!(f, "I/O error on {path}: {source}"),
            Error::Pipeline(message) => write!(f, "pipeline error: {message}"),
            Error::BudgetExceeded { stage, quarantined, total, budget } => write!(
                f,
                "{stage} stage exceeded its error budget: {quarantined} of {total} \
                 records quarantined (budget {:.1} %)",
                budget * 100.0
            ),
            Error::InjectedKill { stage } => {
                write!(f, "chaos: injected kill after the {stage} stage")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Graph(e) => Some(e),
            Error::Ingest(e) => Some(e),
            Error::Lmm(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            Error::Pipeline(_) | Error::BudgetExceeded { .. } | Error::InjectedKill { .. } => {
                None
            }
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<IngestError> for Error {
    fn from(e: IngestError) -> Self {
        Error::Ingest(e)
    }
}

impl From<LmmError> for Error {
    fn from(e: LmmError) -> Self {
        Error::Lmm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_cover_variants() {
        let e = Error::Pipeline("no transitions".into());
        assert!(e.to_string().contains("no transitions"));
        assert!(std::error::Error::source(&e).is_none());

        let e = Error::Io {
            path: "/tmp/x".into(),
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.to_string().contains("/tmp/x"));
        assert!(std::error::Error::source(&e).is_some());

        let e: Error = LmmError::LengthMismatch.into();
        assert!(matches!(e, Error::Lmm(_)));
    }
}
