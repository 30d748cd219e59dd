//! `taxitrace-obs`: the workspace's observability core.
//!
//! The pipeline's quality rests on knowing *what each stage did to the
//! data* — rule fire counts, funnel drop-offs, gap-fill cache rates,
//! executor balance. This crate gives every layer one vocabulary for
//! those numbers:
//!
//! * [`Registry`] — a lock-cheap metrics registry. Registration takes a
//!   short mutex; increments are single relaxed atomics behind cloned
//!   [`Counter`]/[`Gauge`]/[`Histogram`] handles, so hot loops and worker
//!   threads never contend on a lock.
//! * [`Span`] — hierarchical wall-clock spans (`"study/match_fuse/index"`)
//!   with per-stage item throughput.
//! * [`MetricsSnapshot`] — a deterministic point-in-time copy, rendered by
//!   the sinks in `sink`: a human table, stable-schema JSON, or
//!   Prometheus text exposition.
//!
//! Zero dependencies (same vendored-shim discipline as `third_party/`):
//! the JSON sink is hand-rolled with sorted keys and fixed float
//! precision, so it can be golden-file tested and schema-checked in CI.
//!
//! ```
//! use taxitrace_obs::{MetricsFormat, Registry};
//!
//! let reg = Registry::new();
//! reg.counter("clean.sessions").add(17);
//! let mut span = reg.span("study/clean");
//! span.set_items(17);
//! span.finish();
//! let text = taxitrace_obs::render(&reg.snapshot(), MetricsFormat::Table);
//! assert!(text.contains("clean.sessions"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod registry;
mod sink;
mod snapshot;
mod span;

pub use registry::{Counter, Gauge, Histogram, Registry, SpanRecord};
pub use sink::{
    render, render_json, render_prometheus, render_table, MetricsFormat,
    JSON_SCHEMA_VERSION,
};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, SpanSnapshot};
pub use span::Span;
