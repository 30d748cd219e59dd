//! Data cleaning (§IV-B) and taxi-specific trip segmentation (§IV-C).
//!
//! * `order` — the §IV-B order repair: route points are sorted once by
//!   server id and once by timestamp; the sequence with the *smaller total
//!   trip distance* is judged correct, and properties are re-aligned to it
//!   with monotonically increasing timestamps.
//! * `segmentation` — the paper's Table 2 time-based rules splitting one
//!   all-day engine-on session into driven trip segments (taxi drivers
//!   "can drive almost the whole day without turning off the car engine").
//! * `filters` — the §IV-C post filters: segments with fewer than five
//!   route points or longer than 30 km are removed; segments over 40 km are
//!   re-split by rule 5 before filtering.
//! * `pipeline` — the composed cleaning pipeline with per-stage audit
//!   counters, plus ground-truth validation helpers the original study
//!   could not have.
//! * `anomaly` — post-cleaning invariant checks (position jump, clock
//!   skew, dropout, stuck sensor) backing the record-level quarantine:
//!   sessions cleaning cannot make physically plausible are routed to a
//!   dead-letter ledger instead of poisoning the study.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod anomaly;
mod filters;
mod interpolate;
mod order;
mod pipeline;
mod segmentation;
mod totals;

pub use anomaly::{segment_anomaly, AnomalyConfig, AnomalyKind};
pub use filters::{FilterConfig, FilterStats};
pub use interpolate::{
    interpolate_gaps, is_synthetic, InterpolateConfig, InterpolateStats,
};
pub use order::{repair_order, ChosenOrder, OrderRepairReport};
pub use pipeline::{
    clean_checked, clean_session, validate_segments, CleanedSession, CleaningConfig, CleaningStats,
    SegmentValidation, TripSegment,
};
pub use segmentation::{
    resplit_rule1, segment_columns, segment_session, segment_session_reference,
    SegmentationConfig, SegmentationReport,
};
pub use totals::CleaningTotals;
