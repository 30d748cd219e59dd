//! Hierarchical wall-clock spans.
//!
//! A [`Span`] measures one stretch of work. Hierarchy is encoded in the
//! path (`"study/match_fuse/index"`); nesting is by construction — open a
//! child span while the parent guard is alive. Spans report wall-clock
//! seconds plus an optional item count, from which sinks derive per-stage
//! throughput.

use std::time::Instant;

use crate::registry::Registry;

/// Live span guard; records its measurement into the registry when
/// finished (or dropped).
#[derive(Debug)]
pub struct Span {
    registry: Registry,
    path: String,
    seq: u64,
    start: Instant,
    items: u64,
    finished: bool,
}

impl Span {
    pub(crate) fn start(registry: Registry, path: String, seq: u64) -> Self {
        Self { registry, path, seq, start: Instant::now(), items: 0, finished: false }
    }

    /// Sets the number of items this span processed (for throughput).
    pub fn set_items(&mut self, items: u64) {
        self.items = items;
    }

    /// Stops the clock and records the measurement.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.registry.record_span_with_seq(
            self.seq,
            &self.path,
            self.start.elapsed().as_secs_f64(),
            self.items,
        );
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_once() {
        let reg = Registry::new();
        let mut span = reg.span("a/b");
        span.set_items(10);
        span.finish();
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].path, "a/b");
        assert_eq!(snap.spans[0].items, 10);
        assert!(snap.spans[0].wall_s >= 0.0);
    }

    #[test]
    fn drop_records_too() {
        let reg = Registry::new();
        {
            let _span = reg.span("dropped");
        }
        assert_eq!(reg.snapshot().spans.len(), 1);
    }

    #[test]
    fn nested_spans_keep_start_order() {
        let reg = Registry::new();
        let parent = reg.span("study");
        let child = reg.span("study/clean");
        child.finish();
        parent.finish();
        let snap = reg.snapshot();
        // Parent started first, so it sorts first even though the child
        // finished earlier.
        assert_eq!(snap.spans[0].path, "study");
        assert_eq!(snap.spans[1].path, "study/clean");
    }
}
