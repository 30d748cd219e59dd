//! `taxitrace-serve`: a read service over immutable store snapshots.
//!
//! The batch pipeline (`taxitrace-core`) produces study outputs; this
//! crate makes them queryable — in process through the shared
//! [`QueryEngine`] trait, and over the wire through a dependency-free
//! HTTP/JSON front end. Three design rules hold everywhere:
//!
//! 1. **Snapshots are immutable.** A [`Snapshot`] is opened through the
//!    store's CRC-verified read path (v3 offset index preferred, salvage
//!    demotion on damage) and never mutated; updates swap the whole
//!    object.
//! 2. **No locks on the read path.** Workers share snapshots through an
//!    [`EpochCell`] — a hand-rolled, safe-Rust arc-swap where the
//!    steady-state read is one atomic load (see [`epoch`] for the
//!    protocol and the measurement behind it).
//! 3. **One query surface.** The HTTP routes answer through the same
//!    [`QueryEngine`]/[`answer`](taxitrace_core::answer) implementation
//!    as the batch path, so serving cannot drift from analysis — pinned
//!    by the serving parity proptest.
//!
//! ```no_run
//! use taxitrace_core::{QueryEngine, QueryRequest, StudyConfig};
//! use taxitrace_obs::Registry;
//! use taxitrace_serve::{Server, Snapshot};
//!
//! let snap = Snapshot::open("trips.ttrs".as_ref(), StudyConfig::quick(7))?;
//! let server = Server::start(snap, 0, 4, Registry::new())?;
//! println!("serving on {}", server.addr());
//! let resp = server.snapshot().query(&QueryRequest::OdFlow { window: None })?;
//! println!("{}", resp.to_json());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod epoch;
pub mod http;
pub mod loadgen;
pub mod snapshot;

pub use epoch::{EpochCell, EpochReader};
pub use http::{ServeOptions, Server};
pub use loadgen::{run_load, LoadReport, LoadSpec};
pub use snapshot::Snapshot;

// Re-exported so binaries can use the unified surface without naming the
// core crate twice.
pub use taxitrace_core::{QueryEngine, QueryRequest, QueryResponse};
