//! Sliding-window statistics over live-closed trips.
//!
//! As trips close against the watermark, the O-D pair labels of their
//! post-filtered transitions land here; the window keeps the last
//! `window_s` seconds of *event time* and publishes how many transitions
//! (and distinct O-D pairs) are currently inside it. These are operational gauges — the authoritative study
//! tables still come from the batch-identical assembly at stream end —
//! but they are what a live deployment would watch between nightly runs.

use std::collections::{BTreeMap, VecDeque};

use crate::metrics::StreamMetrics;

/// Event-time sliding window of recently closed transitions.
#[derive(Debug)]
pub struct SlidingWindow {
    window_s: i64,
    /// `(event_s, pair)` in event-time order of admission.
    entries: VecDeque<(i64, String)>,
    /// Live multiset of O-D pair labels inside the window.
    pairs: BTreeMap<String, usize>,
    /// High-water mark of transitions simultaneously inside the window.
    peak: usize,
}

impl SlidingWindow {
    pub fn new(window_s: i64) -> Self {
        Self { window_s, entries: VecDeque::new(), pairs: BTreeMap::new(), peak: 0 }
    }

    /// Admits one transition's pair label at its event time and re-publishes the
    /// window gauges.
    pub fn push(&mut self, event_s: i64, pair: String, metrics: &StreamMetrics) {
        self.evict(event_s);
        *self.pairs.entry(pair.clone()).or_insert(0) += 1;
        self.entries.push_back((event_s, pair));
        self.peak = self.peak.max(self.entries.len());
        self.publish(metrics);
    }

    /// Advances window time without admitting anything (watermark moved).
    pub fn advance(&mut self, event_s: i64, metrics: &StreamMetrics) {
        self.evict(event_s);
        self.publish(metrics);
    }

    /// Most transitions ever simultaneously inside the window.
    pub fn peak(&self) -> usize {
        self.peak
    }

    fn evict(&mut self, now_s: i64) {
        let horizon = now_s.saturating_sub(self.window_s);
        while self.entries.front().is_some_and(|(ts, _)| *ts < horizon) {
            let Some((_, pair)) = self.entries.pop_front() else { break };
            match self.pairs.get_mut(&pair) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.pairs.remove(&pair);
                }
            }
        }
    }

    fn publish(&self, metrics: &StreamMetrics) {
        metrics.window_transitions.set(self.entries.len() as f64);
        metrics.window_od_pairs.set(self.pairs.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_obs::Registry;

    #[test]
    fn evicts_past_horizon_and_tracks_pairs() {
        let registry = Registry::new();
        let metrics = StreamMetrics::new(&registry);
        let mut w = SlidingWindow::new(100);
        w.push(1000, "T-S".into(), &metrics);
        w.push(1050, "S-T".into(), &metrics);
        w.push(1060, "T-S".into(), &metrics);
        assert_eq!(metrics.window_transitions.get(), 3.0);
        assert_eq!(metrics.window_od_pairs.get(), 2.0);
        // Horizon 1040: the 1000 entry falls out, one T-S remains.
        w.advance(1140, &metrics);
        assert_eq!(metrics.window_transitions.get(), 2.0);
        assert_eq!(metrics.window_od_pairs.get(), 2.0);
        w.advance(5000, &metrics);
        assert_eq!(metrics.window_transitions.get(), 0.0);
        assert_eq!(metrics.window_od_pairs.get(), 0.0);
        assert_eq!(w.peak(), 3);
    }
}
