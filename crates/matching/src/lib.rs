//! Map-matching (§IV-E): aligning GPS route points on the digital map.
//!
//! The paper uses the incremental map-matching algorithm of Brakatsoulas et
//! al. (VLDB'05), "enhanced with information retrieved from the digital map
//! (like road directions)", with pgRouting's Dijkstra filling gaps "when
//! data points are too far from each other". Sampling is uneven (points
//! arrive on significant driving changes only), which is exactly the regime
//! where incremental matching with look-ahead pays off.
//!
//! This crate implements:
//!
//! * [`CandidateIndex`] — R-tree candidate lookup over traffic elements,
//!   with distance, orientation and one-way direction scoring;
//! * [`incremental`] — the paper's matcher: greedy with look-ahead,
//!   connectivity-aware, direction-constrained;
//! * [`nearest`] — point-wise nearest-element baseline (no temporal
//!   context), the natural ablation;
//! * [`hmm`] — a Viterbi matcher in the spirit of Lou et al. (2009), the
//!   stronger baseline for uneven sampling;
//! * `path` — Dijkstra gap filling: converting per-point matches into a
//!   contiguous traffic-element sequence;
//! * `accuracy` — ground-truth evaluation (the simulator knows the true
//!   element under every point).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod accuracy;
mod candidates;
pub mod hmm;
pub mod incremental;
pub mod nearest;
pub mod scratch;
mod path;
mod types;

pub use accuracy::{evaluate, MatchAccuracy};
pub use candidates::{Candidate, CandidateIndex, ScoredCandidate};
pub use path::{element_path, element_path_blind, element_path_budgeted, element_path_with};
pub use scratch::{record_scratch_metrics, MatchScratch};
pub use types::{MatchConfig, MatchedPoint, MatchedTrace};
