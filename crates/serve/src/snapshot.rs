//! Immutable, CRC-verified serving snapshots.
//!
//! A [`Snapshot`] is a fully analysed study pinned in memory: the trip
//! store plus every derived product the four query kinds need. Opening
//! one goes through the store codec's verified read path — a clean v3
//! container is served via its offset index (zero-copy seek reads), any
//! damage demotes the read to the salvage scan with the loss quarantined
//! and counted, and a config-fingerprint mismatch is refused outright.
//! Once built, a snapshot is never mutated; replacement is a whole-object
//! swap through [`crate::EpochCell`].

use std::path::Path;

use taxitrace_core::{
    answer, Error, GridStats, QueryEngine, QueryError, QueryRequest, QueryResponse, Source, Study,
    StudyConfig, StudyOutput,
};

/// An immutable study result prepared for serving: the output plus a
/// cached all-pairs grid analysis (so `cell_speed` and the default
/// `grid_stats` answer without recomputing the §V binning per request).
#[derive(Debug)]
pub struct Snapshot {
    output: StudyOutput,
    grid: GridStats,
}

impl Snapshot {
    /// Opens a store file and runs the analysis pipeline over it,
    /// producing a servable snapshot. Verified reads, salvage demotion
    /// and fingerprint gating are inherited from [`Source::Store`]; the
    /// quarantine ledger and `store.*` counters of the underlying run stay
    /// inspectable via [`Snapshot::output`].
    pub fn open(path: &Path, config: StudyConfig) -> Result<Self, Error> {
        Ok(Self::from_output(Study::new(config).run_from(Source::Store(path))?))
    }

    /// Wraps an already-computed study output (the batch path's object)
    /// without re-running anything.
    pub fn from_output(output: StudyOutput) -> Self {
        let grid = output.grid_stats(None);
        Self { output, grid }
    }

    /// The underlying study output (store, transitions, quarantine,
    /// metrics of the build run).
    pub fn output(&self) -> &StudyOutput {
        &self.output
    }

    /// The cached all-pairs grid analysis.
    pub fn grid(&self) -> &GridStats {
        &self.grid
    }
}

impl QueryEngine for Snapshot {
    fn query(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        // Identical semantics to the batch path by construction: same
        // `answer` implementation, cached grid instead of a fresh one.
        answer(&self.output, &self.grid, req)
    }
}
