//! Immutable, CRC-verified serving snapshots.
//!
//! A [`Snapshot`] is a fully analysed study pinned in memory: the trip
//! store plus every derived product the four query kinds need. Opening
//! one goes through the store codec's verified read path: one walk of
//! the file through a fixed-size read buffer and one reused record
//! buffer, so the 62 MB file image is never held whole next to the
//! decoded sessions. The walk verifies every record and the offset
//! index, a damaged file's loss is quarantined and counted, and a
//! config-fingerprint mismatch is refused outright.
//! Once built, a snapshot is never mutated; replacement is a whole-object
//! swap through [`crate::EpochCell`], which carries the encoded bodies
//! along with the data they were encoded from.

use std::borrow::Cow;
use std::path::Path;

use taxitrace_core::{
    answer, Error, GridIndex, GridStats, QueryEngine, QueryError, QueryRequest, QueryResponse,
    Source, Study, StudyConfig, StudyOutput,
};

/// An immutable study result prepared for serving, with everything that
/// does not depend on a request's parameters derived once at open:
/// - the grid index (all-pairs and per-pair §V analyses), so no request
///   bins points;
/// - the canonical JSON body of every parameter-free answer (`/od_flow`
///   without a window, `/grid_stats` and `/grid_stats?pair=` for each
///   pair), so those requests are written without encoding.
#[derive(Debug)]
pub struct Snapshot {
    output: StudyOutput,
    grid: GridIndex,
    /// Each parameter-free request with its encoded answer.
    bodies: Vec<(QueryRequest, String)>,
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
    /// without re-running the pipeline: builds the grid index and encodes
    /// the parameter-free bodies, each through [`answer`].
    pub fn from_output(output: StudyOutput) -> Self {
        let grid = output.grid_index();
        let grid_requests = std::iter::once(None)
            .chain(grid.by_pair.keys().cloned().map(Some))
            .map(|pair| QueryRequest::GridStats { pair });
        let parameter_free =
            std::iter::once(QueryRequest::OdFlow { window: None }).chain(grid_requests);
        let bodies = parameter_free
            .filter_map(|req| {
                let body = answer(&output, &grid, &req).ok()?.to_json();
                Some((req, body))
            })
            .collect();
        Self { output, grid, bodies }
    }

    /// The underlying study output (store, transitions, quarantine,
    /// metrics of the build run).
    pub fn output(&self) -> &StudyOutput {
        &self.output
    }

    /// The all-pairs grid analysis of the index built at open.
    pub fn grid(&self) -> &GridStats {
        &self.grid.all
    }

    /// The canonical JSON body answering `req`, exactly
    /// `self.query(req)?.to_json()`: the body stored at open for a
    /// parameter-free request, a fresh encoding otherwise.
    pub(crate) fn body(&self, req: &QueryRequest) -> Result<Cow<'_, str>, QueryError> {
        match self.bodies.iter().find(|(stored, _)| stored == req) {
            Some((_, body)) => Ok(Cow::Borrowed(body)),
            None => self.query(req).map(|r| Cow::Owned(r.to_json())),
        }
    }
}

impl QueryEngine for Snapshot {
    fn query(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        // Identical semantics to the batch path by construction: same
        // `answer` implementation, the index built at open instead of a
        // fresh one.
        answer(&self.output, &self.grid, req)
    }
}
