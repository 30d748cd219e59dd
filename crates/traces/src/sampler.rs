use serde::{Deserialize, Serialize};
use taxitrace_geo::{heading_diff_deg, Point};
use taxitrace_timebase::Timestamp;

/// Event-based route-point emission, mimicking the Driveco device.
///
/// The paper (§III): "There is no specific sampling rate for the route
/// points, but a route point is generated when some significant change in
/// the driving behavior, such as a turn, is registered." This sampler
/// emits on heading changes, speed changes, distance, and a heartbeat
/// interval (slower when stationary) — the heartbeat is what makes the
/// Table 2 stop-detection rules observable at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Emit when heading changed by more than this (degrees) and the vehicle
    /// moved at least `min_move_m`.
    pub heading_change_deg: f64,
    pub min_move_m: f64,
    /// Emit when speed changed by more than this (km/h).
    pub speed_change_kmh: f64,
    /// Emit after this many metres regardless.
    pub max_distance_m: f64,
    /// Heartbeat while moving, seconds.
    pub moving_heartbeat_s: i64,
    /// Heartbeat while stationary, seconds.
    pub stationary_heartbeat_s: i64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            heading_change_deg: 22.0,
            min_move_m: 12.0,
            speed_change_kmh: 14.0,
            max_distance_m: 350.0,
            moving_heartbeat_s: 35,
            stationary_heartbeat_s: 30,
        }
    }
}

/// Stateful significant-change detector.
#[derive(Debug, Clone)]
pub struct Sampler {
    config: SamplerConfig,
    last: Option<EmittedState>,
}

#[derive(Debug, Clone, Copy)]
struct EmittedState {
    time: Timestamp,
    pos: Point,
    speed_kmh: f64,
    heading_deg: f64,
}

impl Sampler {
    /// New sampler; the first observation is always emitted.
    pub fn new(config: SamplerConfig) -> Self {
        Self { config, last: None }
    }

    /// Resets state (call at engine start).
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Decides whether the device stores a route point for this observation.
    pub fn observe(
        &mut self,
        time: Timestamp,
        pos: Point,
        speed_kmh: f64,
        heading_deg: f64,
    ) -> bool {
        let Some(last) = self.last else {
            self.last = Some(EmittedState { time, pos, speed_kmh, heading_deg });
            return true;
        };
        let c = &self.config;
        let dt = (time - last.time).secs();
        let stationary = speed_kmh < 2.0 && last.speed_kmh < 2.0;
        let heartbeat =
            if stationary { c.stationary_heartbeat_s } else { c.moving_heartbeat_s };
        // The cheap triggers go first, so the distance and the heading
        // change are only computed when neither fires.
        let emit = (speed_kmh - last.speed_kmh).abs() > c.speed_change_kmh
            || dt >= heartbeat
            || {
                let moved = pos.distance(last.pos);
                moved > c.max_distance_m
                    || (moved >= c.min_move_m
                        && heading_diff_deg(heading_deg, last.heading_deg)
                            > c.heading_change_deg)
            };
        if emit {
            self.last = Some(EmittedState { time, pos, speed_kmh, heading_deg });
        }
        emit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> Sampler {
        Sampler::new(SamplerConfig::default())
    }

    #[test]
    fn first_observation_emits() {
        let mut s = sampler();
        assert!(s.observe(Timestamp::from_secs(0), Point::new(0.0, 0.0), 30.0, 0.0));
    }

    #[test]
    fn steady_cruise_emits_only_heartbeats() {
        let mut s = sampler();
        let mut emitted = 0;
        for t in 0..120 {
            let pos = Point::new(t as f64 * 8.0, 0.0); // 8 m/s east
            if s.observe(Timestamp::from_secs(t), pos, 29.0, 90.0) {
                emitted += 1;
            }
        }
        // 1 initial + heartbeats/distance triggers; far fewer than 120.
        assert!(emitted <= 6, "{emitted}");
        assert!(emitted >= 3, "{emitted}");
    }

    #[test]
    fn turn_triggers_emission() {
        let mut s = sampler();
        s.observe(Timestamp::from_secs(0), Point::new(0.0, 0.0), 30.0, 90.0);
        // Move 20 m and turn 45°.
        assert!(s.observe(Timestamp::from_secs(3), Point::new(20.0, 0.0), 30.0, 45.0));
    }

    #[test]
    fn small_jitter_does_not_emit() {
        let mut s = sampler();
        s.observe(Timestamp::from_secs(0), Point::new(0.0, 0.0), 30.0, 90.0);
        assert!(!s.observe(Timestamp::from_secs(1), Point::new(8.0, 0.2), 31.0, 91.5));
    }

    #[test]
    fn braking_triggers_emission() {
        let mut s = sampler();
        s.observe(Timestamp::from_secs(0), Point::new(0.0, 0.0), 45.0, 90.0);
        assert!(s.observe(Timestamp::from_secs(2), Point::new(18.0, 0.0), 20.0, 90.0));
    }

    #[test]
    fn stationary_heartbeat() {
        let mut s = sampler();
        s.observe(Timestamp::from_secs(0), Point::new(0.0, 0.0), 0.0, 90.0);
        // Below the stationary heartbeat: no emit.
        assert!(!s.observe(Timestamp::from_secs(20), Point::new(0.0, 0.0), 0.0, 90.0));
        // At the heartbeat: fires.
        assert!(s.observe(Timestamp::from_secs(30), Point::new(0.0, 0.0), 0.0, 90.0));
    }
}
