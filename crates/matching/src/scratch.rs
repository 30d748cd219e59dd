//! Per-worker scratch for the matching hot path: a reusable A* search
//! state plus the audit counters the matcher accumulates with it.
//!
//! Gap filling issues a shortest-path query per non-adjacent edge
//! transition. Every query runs in full: no route is memoised across
//! traces, so the work a trace costs (and every `match.*` counter) does
//! not depend on which worker matched which trace before it.

use taxitrace_roadnet::SearchState;

/// All mutable per-worker state a matcher thread holds across traces,
/// plus the audit counters the matcher accumulates while using it.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Reusable A* arrays (generation-stamped; no per-query allocation).
    pub search: SearchState,
    /// Traces matched through this scratch.
    pub traces: u64,
    /// Candidates scored across all points of all traces.
    pub candidates_scored: u64,
    /// Points that received a match.
    pub points_matched: u64,
    /// Points with no candidate in radius.
    pub points_unmatched: u64,
    /// Gap-fill routing queries abandoned because they hit the
    /// `gap_fill_max_expansions` budget (each fell back to a straight
    /// gap; see [`crate::MatchConfig::gap_fill_max_expansions`]).
    pub gaps_budget_exhausted: u64,
}

impl MatchScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Publishes the combined counters of per-worker scratches as `match.*`
/// metrics: trace/point/candidate volumes and A* search effort.
pub fn record_scratch_metrics(scratches: &[MatchScratch], registry: &taxitrace_obs::Registry) {
    let mut traces = 0u64;
    let mut candidates = 0u64;
    let mut matched = 0u64;
    let mut unmatched = 0u64;
    let mut expanded = 0u64;
    let mut budget_exhausted = 0u64;
    for s in scratches {
        traces += s.traces;
        candidates += s.candidates_scored;
        matched += s.points_matched;
        unmatched += s.points_unmatched;
        expanded += s.search.expanded_total();
        budget_exhausted += s.gaps_budget_exhausted;
    }
    registry.counter("match.traces").add(traces);
    registry.counter("match.candidates_scored").add(candidates);
    registry.counter("match.points_matched").add(matched);
    registry.counter("match.points_unmatched").add(unmatched);
    registry.counter("match.astar_expanded").add(expanded);
    registry.counter("match.gap_budget_exhausted").add(budget_exhausted);
}
