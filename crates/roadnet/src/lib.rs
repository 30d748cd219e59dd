//! Road-network substrate: a Digiroad-like digital map.
//!
//! The paper fetches road geometry and attribute data from Digiroad, the
//! Finnish national road and street database. Digiroad models the network as
//! *traffic elements* — the smallest units of road centre-line geometry, each
//! with a unique identifier and characteristic attributes (coordinates,
//! functional type, length, digitisation direction) — plus point objects of
//! the transportation system (traffic lights, bus stops, pedestrian
//! crossings) and segmented line-like attributes (speed restrictions).
//!
//! This crate reproduces that model and the paper's §IV-A map preparation:
//!
//! 1. [`EndpointTable`] classifies traffic-element endpoints as *junctions*
//!    (≥ 3 incident elements), *intermediate points* (exactly 2) or *dead
//!    ends* (1).
//! 2. [`RoadGraph`] reconstructs the road-network graph `G = {V, E}` where
//!    vertices are junctions and each edge is a *chain of traffic elements*
//!    between two junctions — the paper's Table 1 rows ("elements integer[]").
//! 3. [`dijkstra`] provides the shortest-path engine that the paper takes
//!    from pgRouting (used to fill map-matching gaps and, in our simulator,
//!    for route choice).
//! 4. [`synth`] generates a deterministic synthetic "downtown Oulu" with the
//!    paper's named entry/exit roads **T**, **S**, **L** and map-object
//!    populations calibrated to the study area totals {67, 48, 293, 271}.
//!
//! The real Digiroad database is not redistributable; see `DESIGN.md` for the
//! substitution argument.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod attributes;
pub mod dijkstra;
mod element;
mod graph;
mod junction;
pub mod quality;
pub mod synth;

pub use attributes::{MapObject, MapObjectKind, MapObjects};
pub use dijkstra::{CostModel, RoutePath, SearchOutcome, SearchState};
pub use element::{ElementId, FlowDirection, FunctionalClass, TrafficElement};
pub use graph::{Edge, EdgeId, GraphError, JunctionPair, NodeId, RoadGraph};
pub use junction::{EndpointKey, EndpointKind, EndpointTable};
