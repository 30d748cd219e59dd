use serde::{Deserialize, Serialize};
use taxitrace_roadnet::{EdgeId, ElementId};

/// Map-matching configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchConfig {
    /// Candidate search radius around each point, metres.
    pub radius_m: f64,
    /// Gaussian sigma of the GPS error model, metres.
    pub sigma_m: f64,
    /// Look-ahead depth of the incremental matcher (0 = pure greedy).
    pub lookahead: usize,
    /// Weight of the distance score.
    pub w_dist: f64,
    /// Weight of the orientation score.
    pub w_head: f64,
    /// Weight of the connectivity score.
    pub w_conn: f64,
    /// Below this speed (km/h) GPS headings are unreliable and the
    /// orientation score is down-weighted.
    pub heading_trust_kmh: f64,
    /// Whether to fill gaps between matched edges with Dijkstra paths.
    pub gap_fill: bool,
    /// Candidates considered per point by the incremental and HMM
    /// matchers (the top-k by score; more buys accuracy, costs time).
    pub max_candidates: usize,
    /// Node-expansion budget per gap-fill routing query. An exhausted
    /// budget falls back to a straight-line gap (the element sequence
    /// simply jumps) instead of searching unbounded; the fallback is
    /// counted in `MatchScratch::gaps_budget_exhausted`.
    /// The default is far above any query the Oulu-scale graph can pose,
    /// so it only trips under an explicit chaos/stress configuration.
    pub gap_fill_max_expansions: u64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            radius_m: 50.0,
            sigma_m: 8.0,
            lookahead: 1,
            w_dist: 1.0,
            w_head: 0.6,
            w_conn: 0.8,
            heading_trust_kmh: 6.0,
            gap_fill: true,
            max_candidates: 8,
            gap_fill_max_expansions: 250_000,
        }
    }
}

/// The match of one route point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchedPoint {
    /// Index of the point in the input trace.
    pub point_index: usize,
    pub element: ElementId,
    pub edge: EdgeId,
    /// Distance from the GPS point to the matched element, metres.
    pub distance_m: f64,
    /// Arc-length offset of the projection along the element, metres.
    pub offset_m: f64,
}

/// A matched trace: per-point matches (points with no candidate in radius
/// are absent) plus the gap-filled element path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MatchedTrace {
    pub points: Vec<MatchedPoint>,
    /// Contiguous traffic-element sequence in travel order (gap-filled when
    /// the config asks for it).
    pub elements: Vec<ElementId>,
    /// Number of input points that could not be matched (off-map outliers).
    pub unmatched: usize,
}

impl MatchedTrace {
    /// Fraction of input points that were matched.
    pub fn matched_fraction(&self) -> f64 {
        let total = self.points.len() + self.unmatched;
        if total == 0 {
            return 1.0;
        }
        self.points.len() as f64 / total as f64
    }
}
