//! Geospatial substrate for the `taxi-traces` workspace.
//!
//! The paper stores taxi traces and the Digiroad road network in
//! PostgreSQL/PostGIS and leans on a small set of geometric operators:
//! geodesic distances, point-to-road projection, "thick geometry" corridors
//! around origin/destination roads, crossing-angle tests, a 200 m × 200 m
//! analysis grid, and spatial indexing for candidate lookup during
//! map-matching. This crate implements exactly that operator set.
//!
//! # Coordinate frames
//!
//! * [`GeoPoint`] — WGS-84 longitude/latitude in degrees (`EPSG:4326`), the
//!   frame in which raw traces and map geometries are expressed.
//! * [`Point`] — a local planar frame in metres produced by a
//!   [`LocalProjection`] (equirectangular about a reference point). At the
//!   scale of a city (the paper's study area spans a few kilometres around
//!   downtown Oulu, 65 °N) the projection error is far below GPS noise.
//!
//! All analysis-side geometry (segments, polylines, grids, R-trees,
//! corridors) operates on the planar frame.
//!
//! # Example
//!
//! ```
//! use taxitrace_geo::{GeoPoint, LocalProjection, Polyline};
//!
//! let oulu = GeoPoint::new(25.4651, 65.0121);
//! let proj = LocalProjection::new(oulu);
//! let a = proj.project(GeoPoint::new(25.4651, 65.0121));
//! let b = proj.project(GeoPoint::new(25.4751, 65.0121));
//! let line = Polyline::new(vec![a, b]).unwrap();
//! assert!((line.length() - 470.0).abs() < 10.0); // ~470 m per 0.01° lon at 65°N
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod angle;
mod bbox;
mod corridor;
mod distance;
mod grid;
mod point;
mod polyline;
mod proj;
mod rtree;
mod segment;
mod simplify;

pub use angle::{angle_between_deg, heading_diff_deg, normalize_deg};
pub use bbox::BBox;
pub use corridor::{Corridor, Crossing};
pub use distance::{bearing_deg, haversine_m, EARTH_RADIUS_M};
pub use grid::{CellId, Grid};
pub use point::{GeoPoint, Point};
pub use polyline::{Polyline, PolylineCursor, PolylineError, Projection};
pub use proj::LocalProjection;
pub use rtree::{RTree, RTreeEntry};
pub use segment::Segment;
pub use simplify::{simplify_polyline, simplify_rdp};
