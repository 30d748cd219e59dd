//! Embedded trip store: the PostgreSQL/PostGIS stand-in.
//!
//! The paper stores retrieved taxi data "in PostgreSQL 9.1 DBMS having
//! PostGIS extension" and manipulates it with SQL/PL-pgSQL. The pipeline
//! reads that data back in two ways only — every session in upload order,
//! and one session by trip id — so this crate provides exactly those:
//!
//! * [`TripStore`] — the sessions in insertion order plus a trip-id map;
//! * [`codec`] — the checksummed v3 container with a verified offset
//!   index, read and written one record at a time, so a simulated year
//!   can be generated once and re-analysed many times, with torn-write
//!   salvage instead of abort;
//! * [`checkpoint`] — a named-section container with a config fingerprint
//!   and atomic rename publication, backing stage checkpoint/resume;
//! * [`integrity`] — the dependency-free CRC-32 and the temp-file+fsync+
//!   rename writer every container publishes through;
//! * [`fsck`] — offline scan/repair over store and checkpoint files.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod checkpoint;
pub mod codec;
pub mod fsck;
pub mod integrity;
mod store;

pub use checkpoint::{load_checkpoint, save_checkpoint, CheckpointFile, CHECKPOINT_MAGIC_V2};
pub use codec::{DamageKind, LoadOptions, LoadOutcome, RecordDamage, SalvageReport};
pub use fsck::{fsck_path, FileKind, FsckReport};
pub use store::{StoreError, TripStore};
