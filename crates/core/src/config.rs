use serde::{Deserialize, Serialize};
use taxitrace_cleaning::{AnomalyConfig, CleaningConfig};
use taxitrace_matching::MatchConfig;
use taxitrace_roadnet::synth::OuluConfig;
use taxitrace_timebase::CivilDate;
use taxitrace_traces::{FaultPlan, FleetConfig};

use crate::checkpoint::CHECKPOINTED_STAGE;

/// Configuration of a full study run. The entire study is a pure function
/// of this value.
///
/// Prefer [`StudyConfig::builder`] over struct-literal construction: the
/// builder validates fleet size, volume scale, the study period and the
/// analysis thresholds before a study can exist, so a `Study` never runs
/// on nonsense inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Master seed (drives the city, weather and fleet streams).
    pub seed: u64,
    pub city: OuluConfig,
    pub fleet: FleetConfig,
    pub cleaning: CleaningConfig,
    pub matching: MatchConfig,
    /// Analysis grid cell size, metres (paper: 200 m × 200 m).
    pub grid_size_m: f64,
    /// Low-speed threshold, km/h (paper: 10 km/h).
    pub low_speed_kmh: f64,
    /// "Normal speed" = within this fraction of the posted limit.
    pub normal_speed_frac: f64,
    /// Traffic-light count splitting Fig. 10's two groups (paper: 9).
    pub fig10_light_threshold: usize,
    /// Fault-tolerance policy: anomaly thresholds, error budget, retries.
    pub fault: FaultConfig,
    /// Chaos plan injecting faults for robustness testing (`None` in
    /// production runs; the default pipeline behaviour is unchanged).
    pub chaos: Option<FaultPlan>,
}

/// Fault-tolerance policy of a study run.
///
/// The defaults are calibrated so a healthy (no-chaos) run never trips
/// them: the anomaly thresholds are physically extreme, and a 25 % error
/// budget is far above anything the default corruption model produces
/// (which quarantines nothing at all).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Maximum fraction of a stage's records that may be quarantined
    /// before the stage fails with [`crate::Error::BudgetExceeded`].
    pub error_budget: f64,
    /// Maximum fraction of a store file's records that may be damaged
    /// (CRC failures, torn tails, duplicates) before loading it fails
    /// with [`crate::Error::BudgetExceeded`] at the `store` stage.
    pub store_error_budget: f64,
    /// Maximum fraction of an external input file's records that may be
    /// rejected (malformed lines, numeric-range violations, dangling
    /// references) before ingestion fails with
    /// [`crate::Error::BudgetExceeded`] at the `ingest` stage.
    pub ingest_error_budget: f64,
    /// Upper bound on executions per worker task (≥ 1; panics are never
    /// retried, only typed task errors are).
    pub max_task_attempts: u32,
    /// Post-cleaning invariant thresholds feeding the quarantine.
    pub anomaly: AnomalyConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            error_budget: 0.25,
            store_error_budget: 0.25,
            ingest_error_budget: 0.25,
            max_task_attempts: 1,
            anomaly: AnomalyConfig::default(),
        }
    }
}

/// Why a [`StudyConfigBuilder`] refused to produce a config.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The fleet must contain at least one taxi.
    ZeroTaxis,
    /// The fleet exceeds the number of taxis a `TaxiId` can address.
    FleetTooLarge(usize),
    /// The study period end does not lie after its start.
    InvertedPeriod { start: CivilDate, end: CivilDate },
    /// The volume scale must be a finite number.
    NonFiniteScale(f64),
    /// The volume scale must lie in `(0, 1]`.
    ScaleOutOfRange(f64),
    /// The analysis grid size must be finite and positive.
    BadGridSize(f64),
    /// The low-speed threshold must be finite and positive.
    BadLowSpeed(f64),
    /// The normal-speed fraction must be finite and positive.
    BadNormalSpeedFrac(f64),
    /// The quarantine error budget must be a fraction in `[0, 1]`.
    BadErrorBudget(f64),
    /// Worker tasks must run at least once.
    ZeroTaskAttempts,
    /// The chaos plan failed its own validation.
    Chaos(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroTaxis => write!(f, "fleet must have at least one taxi"),
            ConfigError::FleetTooLarge(n) => {
                write!(f, "fleet of {n} taxis exceeds the {} a TaxiId can address", u16::MAX)
            }
            ConfigError::InvertedPeriod { start, end } => {
                write!(f, "study period end {end:?} is not after start {start:?}")
            }
            ConfigError::NonFiniteScale(s) => write!(f, "scale {s} is not finite"),
            ConfigError::ScaleOutOfRange(s) => {
                write!(f, "scale {s} outside (0, 1]")
            }
            ConfigError::BadGridSize(g) => {
                write!(f, "grid size {g} m must be finite and positive")
            }
            ConfigError::BadLowSpeed(v) => {
                write!(f, "low-speed threshold {v} km/h must be finite and positive")
            }
            ConfigError::BadNormalSpeedFrac(v) => {
                write!(f, "normal-speed fraction {v} must be finite and positive")
            }
            ConfigError::BadErrorBudget(b) => {
                write!(f, "error budget {b} must be a fraction in [0, 1]")
            }
            ConfigError::ZeroTaskAttempts => {
                write!(f, "max task attempts must be at least 1")
            }
            ConfigError::Chaos(msg) => write!(f, "invalid chaos plan: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`StudyConfig`]; see [`StudyConfig::builder`].
#[derive(Debug, Clone)]
pub struct StudyConfigBuilder {
    seed: u64,
    scale: f64,
    taxis: Option<usize>,
    period: Option<(CivilDate, CivilDate)>,
    grid_size_m: f64,
    low_speed_kmh: f64,
    normal_speed_frac: f64,
    fig10_light_threshold: usize,
    cleaning: CleaningConfig,
    matching: MatchConfig,
    fault: FaultConfig,
    chaos: Option<FaultPlan>,
}

impl StudyConfigBuilder {
    fn new(seed: u64) -> Self {
        let paper = StudyConfig::paper(seed);
        Self {
            seed,
            scale: paper.fleet.scale,
            taxis: None,
            period: None,
            grid_size_m: paper.grid_size_m,
            low_speed_kmh: paper.low_speed_kmh,
            normal_speed_frac: paper.normal_speed_frac,
            fig10_light_threshold: paper.fig10_light_threshold,
            cleaning: paper.cleaning,
            matching: paper.matching,
            fault: paper.fault,
            chaos: None,
        }
    }

    /// Volume scale in `(0, 1]` (1.0 = the paper's full year).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Number of taxis in the fleet (the paper studies 7; more cycles the
    /// paper's per-taxi activity profiles).
    pub fn taxis(mut self, taxis: usize) -> Self {
        self.taxis = Some(taxis);
        self
    }

    /// Study period as civil dates, end exclusive (the paper:
    /// 1.10.2012 – 1.10.2013).
    pub fn period(mut self, start: CivilDate, end: CivilDate) -> Self {
        self.period = Some((start, end));
        self
    }

    /// Analysis grid cell size, metres.
    pub fn grid_size_m(mut self, metres: f64) -> Self {
        self.grid_size_m = metres;
        self
    }

    /// Low-speed threshold, km/h.
    pub fn low_speed_kmh(mut self, kmh: f64) -> Self {
        self.low_speed_kmh = kmh;
        self
    }

    /// "Normal speed" fraction of the posted limit.
    pub fn normal_speed_frac(mut self, frac: f64) -> Self {
        self.normal_speed_frac = frac;
        self
    }

    /// Traffic-light threshold splitting Fig. 10's groups.
    pub fn fig10_light_threshold(mut self, lights: usize) -> Self {
        self.fig10_light_threshold = lights;
        self
    }

    /// Cleaning-stage configuration.
    pub fn cleaning(mut self, cleaning: CleaningConfig) -> Self {
        self.cleaning = cleaning;
        self
    }

    /// Map-matching configuration.
    pub fn matching(mut self, matching: MatchConfig) -> Self {
        self.matching = matching;
        self
    }

    /// Fault-tolerance policy (error budget, retries, anomaly thresholds).
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Chaos plan for robustness testing.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<StudyConfig, ConfigError> {
        if !self.scale.is_finite() {
            return Err(ConfigError::NonFiniteScale(self.scale));
        }
        if self.scale <= 0.0 || self.scale > 1.0 {
            return Err(ConfigError::ScaleOutOfRange(self.scale));
        }
        if self.taxis == Some(0) {
            return Err(ConfigError::ZeroTaxis);
        }
        if !self.grid_size_m.is_finite() || self.grid_size_m <= 0.0 {
            return Err(ConfigError::BadGridSize(self.grid_size_m));
        }
        if !self.low_speed_kmh.is_finite() || self.low_speed_kmh <= 0.0 {
            return Err(ConfigError::BadLowSpeed(self.low_speed_kmh));
        }
        if !self.normal_speed_frac.is_finite() || self.normal_speed_frac <= 0.0 {
            return Err(ConfigError::BadNormalSpeedFrac(self.normal_speed_frac));
        }

        let mut config = StudyConfig::paper(self.seed);
        config.fleet.scale = self.scale;
        if let Some(taxis) = self.taxis {
            let paper_profiles = config.fleet.legs_per_taxi.clone();
            config.fleet.legs_per_taxi = (0..taxis)
                .map(|i| paper_profiles[i % paper_profiles.len()])
                .collect();
        }
        if config.fleet.legs_per_taxi.is_empty() {
            return Err(ConfigError::ZeroTaxis);
        }
        if let Some((start, end)) = self.period {
            let days = end.days_from_epoch() - start.days_from_epoch();
            if days <= 0 {
                return Err(ConfigError::InvertedPeriod { start, end });
            }
            config.fleet.days = days as usize;
        }
        config.grid_size_m = self.grid_size_m;
        config.low_speed_kmh = self.low_speed_kmh;
        config.normal_speed_frac = self.normal_speed_frac;
        config.fig10_light_threshold = self.fig10_light_threshold;
        config.cleaning = self.cleaning;
        config.matching = self.matching;
        config.fault = self.fault;
        config.chaos = self.chaos;
        config.validate()?;
        Ok(config)
    }
}

impl StudyConfig {
    /// Validating builder seeded with the paper's defaults.
    ///
    /// ```
    /// use taxitrace_core::StudyConfig;
    ///
    /// let config = StudyConfig::builder(7).scale(0.1).build().expect("valid");
    /// assert_eq!(config.fleet.scale, 0.1);
    /// assert!(StudyConfig::builder(7).scale(f64::NAN).build().is_err());
    /// ```
    pub fn builder(seed: u64) -> StudyConfigBuilder {
        StudyConfigBuilder::new(seed)
    }

    /// Paper-scale study: 7 taxis, a full year, ~20k trip segments.
    pub fn paper(seed: u64) -> Self {
        let fleet = FleetConfig { seed, ..FleetConfig::default() };
        Self {
            seed,
            city: OuluConfig { seed, ..OuluConfig::default() },
            fleet,
            cleaning: CleaningConfig::default(),
            matching: MatchConfig::default(),
            fault: FaultConfig::default(),
            chaos: None,
            grid_size_m: 200.0,
            low_speed_kmh: 10.0,
            // "Normal speed (speed at the speed limit)": strictly at/above
            // the posted limit, which is what keeps the paper's normal-speed
            // shares small (means 6–15 %).
            normal_speed_frac: 1.0,
            fig10_light_threshold: 9,
        }
    }

    /// Reduced-volume study for tests and quick runs (~5 % of the year).
    pub fn quick(seed: u64) -> Self {
        let mut cfg = Self::paper(seed);
        cfg.fleet.scale = 0.05;
        cfg
    }

    /// Study with an arbitrary volume scale in `(0, 1]`.
    pub fn scaled(seed: u64, scale: f64) -> Self {
        let mut cfg = Self::paper(seed);
        cfg.fleet.scale = scale;
        cfg
    }

    /// Re-checks the invariants the builder enforces, for configs built
    /// by hand. [`crate::Study::simulate`] calls this first, so invalid
    /// struct-literal configs fail fast instead of producing nonsense.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.fleet.scale.is_finite() {
            return Err(ConfigError::NonFiniteScale(self.fleet.scale));
        }
        if self.fleet.scale <= 0.0 || self.fleet.scale > 1.0 {
            return Err(ConfigError::ScaleOutOfRange(self.fleet.scale));
        }
        if self.fleet.legs_per_taxi.is_empty() {
            return Err(ConfigError::ZeroTaxis);
        }
        if self.fleet.legs_per_taxi.len() > u16::MAX as usize {
            return Err(ConfigError::FleetTooLarge(self.fleet.legs_per_taxi.len()));
        }
        if !self.grid_size_m.is_finite() || self.grid_size_m <= 0.0 {
            return Err(ConfigError::BadGridSize(self.grid_size_m));
        }
        if !self.low_speed_kmh.is_finite() || self.low_speed_kmh <= 0.0 {
            return Err(ConfigError::BadLowSpeed(self.low_speed_kmh));
        }
        if !self.normal_speed_frac.is_finite() || self.normal_speed_frac <= 0.0 {
            return Err(ConfigError::BadNormalSpeedFrac(self.normal_speed_frac));
        }
        if !self.fault.error_budget.is_finite()
            || !(0.0..=1.0).contains(&self.fault.error_budget)
        {
            return Err(ConfigError::BadErrorBudget(self.fault.error_budget));
        }
        if !self.fault.store_error_budget.is_finite()
            || !(0.0..=1.0).contains(&self.fault.store_error_budget)
        {
            return Err(ConfigError::BadErrorBudget(self.fault.store_error_budget));
        }
        if !self.fault.ingest_error_budget.is_finite()
            || !(0.0..=1.0).contains(&self.fault.ingest_error_budget)
        {
            return Err(ConfigError::BadErrorBudget(self.fault.ingest_error_budget));
        }
        if self.fault.max_task_attempts == 0 {
            return Err(ConfigError::ZeroTaskAttempts);
        }
        if let Some(plan) = &self.chaos {
            plan.validate().map_err(ConfigError::Chaos)?;
            let stages = [
                ("kill_after_stage", &plan.kill_after_stage),
                ("fail_checkpoint_stage", &plan.fail_checkpoint_stage),
            ];
            for (key, stage) in stages {
                if let Some(stage) = stage.as_deref().filter(|s| *s != CHECKPOINTED_STAGE) {
                    return Err(ConfigError::Chaos(format!(
                        "{key} {stage:?}: only the {CHECKPOINTED_STAGE} stage is checkpointed"
                    )));
                }
            }
            if let Some(budget) = plan.error_budget {
                if !budget.is_finite() || !(0.0..=1.0).contains(&budget) {
                    return Err(ConfigError::BadErrorBudget(budget));
                }
            }
            if plan.max_task_attempts == Some(0) {
                return Err(ConfigError::ZeroTaskAttempts);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let p = StudyConfig::paper(1);
        assert_eq!(p.grid_size_m, 200.0);
        assert_eq!(p.low_speed_kmh, 10.0);
        assert_eq!(p.fig10_light_threshold, 9);
        let q = StudyConfig::quick(1);
        assert!(q.fleet.scale < p.fleet.scale);
        let s = StudyConfig::scaled(1, 0.3);
        assert_eq!(s.fleet.scale, 0.3);
    }

    #[test]
    fn builder_defaults_match_paper() {
        let built = StudyConfig::builder(2012).build().expect("valid defaults");
        let paper = StudyConfig::paper(2012);
        assert_eq!(built.fleet.scale, paper.fleet.scale);
        assert_eq!(built.fleet.legs_per_taxi, paper.fleet.legs_per_taxi);
        assert_eq!(built.fleet.days, 365);
        assert_eq!(built.grid_size_m, paper.grid_size_m);
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        assert_eq!(
            StudyConfig::builder(1).taxis(0).build().expect_err("zero taxis"),
            ConfigError::ZeroTaxis
        );
        assert!(matches!(
            StudyConfig::builder(1).scale(f64::NAN).build().expect_err("nan"),
            ConfigError::NonFiniteScale(_)
        ));
        assert!(matches!(
            StudyConfig::builder(1).scale(0.0).build().expect_err("zero"),
            ConfigError::ScaleOutOfRange(_)
        ));
        assert!(matches!(
            StudyConfig::builder(1).scale(1.5).build().expect_err("too big"),
            ConfigError::ScaleOutOfRange(_)
        ));
        assert!(matches!(
            StudyConfig::builder(1).grid_size_m(-5.0).build().expect_err("grid"),
            ConfigError::BadGridSize(_)
        ));
        let d = |y, m, day| CivilDate::new(y, m, day).expect("valid date");
        assert!(matches!(
            StudyConfig::builder(1)
                .period(d(2013, 10, 1), d(2012, 10, 1))
                .build()
                .expect_err("inverted"),
            ConfigError::InvertedPeriod { .. }
        ));
    }

    #[test]
    fn builder_wires_period_and_taxis() {
        let d = |y, m, day| CivilDate::new(y, m, day).expect("valid date");
        let cfg = StudyConfig::builder(1)
            .taxis(3)
            .period(d(2012, 10, 1), d(2013, 1, 1))
            .scale(0.2)
            .build()
            .expect("valid");
        assert_eq!(cfg.fleet.legs_per_taxi.len(), 3);
        assert_eq!(cfg.fleet.days, 92);
        assert_eq!(cfg.fleet.scale, 0.2);
        // More taxis than the paper's 7 cycle the activity profiles.
        let big = StudyConfig::builder(1).taxis(9).build().expect("valid");
        assert_eq!(big.fleet.legs_per_taxi.len(), 9);
        assert_eq!(big.fleet.legs_per_taxi[7], big.fleet.legs_per_taxi[0]);
    }

    #[test]
    fn validate_catches_struct_literal_mistakes() {
        let mut cfg = StudyConfig::paper(1);
        assert!(cfg.validate().is_ok());
        cfg.fleet.legs_per_taxi.clear();
        assert_eq!(cfg.validate().expect_err("no taxis"), ConfigError::ZeroTaxis);
        let mut cfg = StudyConfig::paper(1);
        cfg.fleet.scale = f64::INFINITY;
        assert!(matches!(
            cfg.validate().expect_err("inf"),
            ConfigError::NonFiniteScale(_)
        ));
    }

    #[test]
    fn only_the_checkpointed_stage_can_be_killed_or_failed() {
        let with = |kill: &str, fail: Option<&str>| {
            let mut cfg = StudyConfig::quick(1);
            cfg.chaos = Some(FaultPlan {
                kill_after_stage: Some(kill.into()),
                fail_checkpoint_stage: fail.map(Into::into),
                ..FaultPlan::default()
            });
            cfg.validate()
        };
        assert_eq!(with("simulate", Some("simulate")), Ok(()));
        for stage in ["clean", "od", "simulte"] {
            assert!(
                matches!(with(stage, None), Err(ConfigError::Chaos(_))),
                "{stage}"
            );
            assert!(
                matches!(with("simulate", Some(stage)), Err(ConfigError::Chaos(_))),
                "{stage}"
            );
        }
    }
}
