use std::collections::HashMap;
use std::fmt;

use crate::{brent_min, Matrix, MatrixError};

/// LMM errors.
#[derive(Debug, Clone, PartialEq)]
pub enum LmmError {
    /// Input slices have inconsistent lengths.
    LengthMismatch,
    /// Too few observations for the fixed-effect dimension.
    TooFewObservations { n: usize, p: usize },
    /// The GLS normal-equation matrix was singular.
    Singular(MatrixError),
}

impl fmt::Display for LmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LmmError::LengthMismatch => write!(f, "y, X and groups must have equal lengths"),
            LmmError::TooFewObservations { n, p } => {
                write!(f, "need more observations ({n}) than fixed effects ({p})")
            }
            LmmError::Singular(e) => write!(f, "singular GLS system: {e}"),
        }
    }
}

impl std::error::Error for LmmError {}

/// The random effect of one group (one 200 m cell in the paper's Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEffect {
    /// Caller-supplied group key.
    pub key: u64,
    /// Number of observations in the group.
    pub n: usize,
    /// BLUP of the group's random intercept.
    pub blup: f64,
    /// Prediction standard error of the BLUP (conditional on the variance
    /// estimates and `b̂` — the `lme4`-style approximation).
    pub se: f64,
}

/// A fitted random-intercept linear mixed model (the paper's Eq. 2–3):
///
/// ```text
/// Y = Xb + Zu + ε,   u ~ N(0, σ²ᵤ I),   ε ~ N(0, σ²ₑ I)
/// ```
///
/// with `Z` the indicator matrix of a single grouping factor.
#[derive(Debug, Clone, PartialEq)]
pub struct LmmFit {
    /// GLS estimates of the fixed effects `b`.
    pub fixed: Vec<f64>,
    /// Standard errors of the fixed effects.
    pub fixed_se: Vec<f64>,
    /// Residual variance `σ̂²ₑ` (REML).
    pub sigma2_e: f64,
    /// Random-intercept variance `σ̂²ᵤ` (REML).
    pub sigma2_u: f64,
    /// Variance ratio `λ = σ²ᵤ / σ²ₑ` at the REML optimum.
    pub lambda: f64,
    /// −2 × restricted log-likelihood at the optimum (up to a constant).
    pub neg2_reml: f64,
    /// −2 × restricted log-likelihood of the null model (λ = 0, no random
    /// intercept), for the variance likelihood-ratio test.
    pub neg2_reml_null: f64,
    /// Per-group effects, sorted by key.
    pub groups: Vec<GroupEffect>,
}

/// Likelihood-ratio test of `σ²ᵤ = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceTest {
    /// REML likelihood-ratio statistic.
    pub lrt: f64,
    /// Asymptotic p-value. The null puts the parameter on the boundary, so
    /// the reference distribution is the 50:50 mixture ½χ²₀ + ½χ²₁
    /// (Self & Liang 1987) — the standard test `lme4` users apply to the
    /// paper's Eq. (3).
    pub p_value: f64,
}

impl LmmFit {
    /// Tests whether the random-intercept variance is zero (is there a
    /// geography effect at all?).
    pub fn variance_test(&self) -> VarianceTest {
        let lrt = (self.neg2_reml_null - self.neg2_reml).max(0.0);
        // P(χ²₁ > x) = 2 (1 − Φ(√x)); halve for the boundary mixture.
        let p_chi1 = 2.0 * (1.0 - crate::normal::cdf(lrt.sqrt()));
        VarianceTest { lrt, p_value: (0.5 * p_chi1).min(1.0) }
    }

    /// The BLUP of a given group key.
    pub fn blup(&self, key: u64) -> Option<f64> {
        self.groups
            .binary_search_by_key(&key, |g| g.key)
            .ok()
            .map(|i| self.groups[i].blup)
    }
}

/// Fitter for the single-grouping-factor random-intercept model.
#[derive(Debug, Clone, Copy)]
pub struct RandomIntercept {
    /// Brent tolerance on `ln λ`.
    pub tol: f64,
    /// Brent iteration cap.
    pub max_iter: usize,
    /// Search bracket on `ln λ`.
    pub ln_lambda_range: (f64, f64),
}

impl Default for RandomIntercept {
    fn default() -> Self {
        Self { tol: 1e-8, max_iter: 200, ln_lambda_range: (-12.0, 8.0) }
    }
}

/// Sufficient statistics that make each REML evaluation O(G·p²).
struct Precomputed {
    n: usize,
    p: usize,
    xtx: Matrix,
    xty: Vec<f64>,
    yty: f64,
    /// Per group: (key, n_i, s_i = Xᵢᵀ1, t_i = Σ yᵢ).
    groups: Vec<(u64, usize, Vec<f64>, f64)>,
}

impl RandomIntercept {
    /// Fits the model. `x` is the n × p fixed-effect design (include an
    /// intercept column); `groups[i]` is the grouping key of observation i.
    pub fn fit(&self, y: &[f64], x: &Matrix, groups: &[u64]) -> Result<LmmFit, LmmError> {
        let n = x.rows();
        let p = x.cols();
        if y.len() != n || groups.len() != n {
            return Err(LmmError::LengthMismatch);
        }
        if n <= p {
            return Err(LmmError::TooFewObservations { n, p });
        }
        let pre = precompute(y, x, groups)?;

        // Profile REML over ln λ; also probe the λ = 0 boundary (pure OLS).
        let objective = |ln_lambda: f64| {
            evaluate(&pre, ln_lambda.exp()).map_or(f64::INFINITY, |e| e.neg2_reml)
        };
        let (ln_l_opt, f_opt) = brent_min(
            objective,
            self.ln_lambda_range.0,
            self.ln_lambda_range.1,
            self.tol,
            self.max_iter,
        );
        let boundary = evaluate(&pre, 0.0).map_or(f64::INFINITY, |e| e.neg2_reml);
        let lambda = if boundary <= f_opt { 0.0 } else { ln_l_opt.exp() };
        let neg2_reml_null = boundary;

        let eval = evaluate(&pre, lambda).ok_or(LmmError::Singular(
            MatrixError::NotPositiveDefinite { pivot: 0 },
        ))?;

        // Fixed-effect covariance: σ²ₑ (XᵀV⁻¹X)⁻¹.
        let cov = eval.xtvx.inverse_spd().map_err(LmmError::Singular)?;
        let fixed_se: Vec<f64> =
            (0..p).map(|j| (eval.sigma2_e * cov[(j, j)]).sqrt()).collect();

        // BLUPs: ûᵢ = λ (tᵢ − sᵢᵀb̂) / (1 + λ nᵢ);
        // SE(ûᵢ − uᵢ) ≈ √(σ²ₑ λ / (1 + λ nᵢ)).
        let mut group_effects = Vec::with_capacity(pre.groups.len());
        for (key, n_i, s_i, t_i) in &pre.groups {
            let resid_sum: f64 =
                t_i - s_i.iter().zip(&eval.beta).map(|(s, b)| s * b).sum::<f64>();
            let denom = 1.0 + lambda * *n_i as f64;
            group_effects.push(GroupEffect {
                key: *key,
                n: *n_i,
                blup: lambda * resid_sum / denom,
                se: (eval.sigma2_e * lambda / denom).sqrt(),
            });
        }
        group_effects.sort_by_key(|g| g.key);

        Ok(LmmFit {
            fixed: eval.beta,
            fixed_se,
            sigma2_e: eval.sigma2_e,
            sigma2_u: lambda * eval.sigma2_e,
            lambda,
            neg2_reml: eval.neg2_reml,
            neg2_reml_null,
            groups: group_effects,
        })
    }
}

fn precompute(y: &[f64], x: &Matrix, groups: &[u64]) -> Result<Precomputed, LmmError> {
    let n = x.rows();
    let p = x.cols();
    let xt = x.transpose();
    let xtx = xt.mul(x).map_err(LmmError::Singular)?;
    let mut xty = vec![0.0; p];
    let mut yty = 0.0;
    for i in 0..n {
        yty += y[i] * y[i];
        for j in 0..p {
            xty[j] += x[(i, j)] * y[i];
        }
    }
    let mut map: HashMap<u64, usize> = HashMap::new();
    let mut group_stats: Vec<(u64, usize, Vec<f64>, f64)> = Vec::new();
    for i in 0..n {
        let gi = *map.entry(groups[i]).or_insert_with(|| {
            group_stats.push((groups[i], 0, vec![0.0; p], 0.0));
            group_stats.len() - 1
        });
        let entry = &mut group_stats[gi];
        entry.1 += 1;
        for j in 0..p {
            entry.2[j] += x[(i, j)];
        }
        entry.3 += y[i];
    }
    Ok(Precomputed { n, p, xtx, xty, yty, groups: group_stats })
}

struct Evaluation {
    beta: Vec<f64>,
    sigma2_e: f64,
    neg2_reml: f64,
    xtvx: Matrix,
}

/// Evaluates the profiled REML criterion at a given λ via the per-group
/// Woodbury identity `Vᵢ⁻¹ = I − (λ / (1 + λ nᵢ)) 11ᵀ`.
fn evaluate(pre: &Precomputed, lambda: f64) -> Option<Evaluation> {
    let p = pre.p;
    let mut xtvx = pre.xtx.clone();
    let mut xtvy = pre.xty.clone();
    let mut ytvy = pre.yty;
    let mut ln_det_v = 0.0;
    for (_, n_i, s_i, t_i) in &pre.groups {
        let c = lambda / (1.0 + lambda * *n_i as f64);
        ln_det_v += (1.0 + lambda * *n_i as f64).ln();
        if c != 0.0 {
            for j in 0..p {
                for k in 0..p {
                    xtvx[(j, k)] -= c * s_i[j] * s_i[k];
                }
                xtvy[j] -= c * s_i[j] * t_i;
            }
            ytvy -= c * t_i * t_i;
        }
    }
    let beta = xtvx.solve_spd(&xtvy).ok()?;
    let q = ytvy - beta.iter().zip(&xtvy).map(|(b, v)| b * v).sum::<f64>();
    if q <= 0.0 {
        return None;
    }
    let dof = (pre.n - p) as f64;
    let sigma2_e = q / dof;
    let ln_det_xtvx = xtvx.ln_det_spd().ok()?;
    let neg2_reml = dof * sigma2_e.ln() + ln_det_v + ln_det_xtvx;
    Some(Evaluation { beta, sigma2_e, neg2_reml, xtvx })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-normal via a fixed xorshift + Box-Muller-ish
    /// transform (enough for statistical tests).
    struct TestRng(u64);
    impl TestRng {
        fn f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        fn normal(&mut self) -> f64 {
            let u1 = self.f64().max(1e-12);
            let u2 = self.f64();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
    }

    fn intercept_design(n: usize) -> Matrix {
        Matrix::from_rows(n, 1, vec![1.0; n])
    }

    /// Balanced one-way layout: the REML estimates have the closed form
    /// σ̂²ₑ = MSE, σ̂²ᵤ = (MSB − MSE)/m (when MSB > MSE).
    #[test]
    fn matches_balanced_anova_closed_form() {
        let k = 12; // groups
        let m = 20; // per group
        let mut rng = TestRng(0xDEADBEEF);
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for g in 0..k {
            let u = 3.0 * rng.normal();
            for _ in 0..m {
                y.push(10.0 + u + 1.5 * rng.normal());
                groups.push(g as u64);
            }
        }
        let n = y.len();
        // Closed-form ANOVA estimates.
        let grand = y.iter().sum::<f64>() / n as f64;
        let mut ssb = 0.0;
        let mut sse = 0.0;
        for g in 0..k {
            let slice: Vec<f64> = y
                .iter()
                .zip(&groups)
                .filter(|(_, gg)| **gg == g as u64)
                .map(|(v, _)| *v)
                .collect();
            let mean_g = slice.iter().sum::<f64>() / m as f64;
            ssb += m as f64 * (mean_g - grand) * (mean_g - grand);
            sse += slice.iter().map(|v| (v - mean_g) * (v - mean_g)).sum::<f64>();
        }
        let msb = ssb / (k - 1) as f64;
        let mse = sse / (k * (m - 1)) as f64;
        let sigma2_u_anova = (msb - mse) / m as f64;

        let fit = RandomIntercept::default()
            .fit(&y, &intercept_design(n), &groups)
            .unwrap();
        assert!(
            (fit.sigma2_e - mse).abs() / mse < 0.01,
            "sigma2_e {} vs MSE {}",
            fit.sigma2_e,
            mse
        );
        assert!(
            (fit.sigma2_u - sigma2_u_anova).abs() / sigma2_u_anova < 0.02,
            "sigma2_u {} vs ANOVA {}",
            fit.sigma2_u,
            sigma2_u_anova
        );
        assert!((fit.fixed[0] - grand).abs() < 0.5);
    }

    #[test]
    fn no_group_effect_collapses_to_ols() {
        let mut rng = TestRng(0xABCD);
        let n = 400;
        let y: Vec<f64> = (0..n).map(|_| 5.0 + rng.normal()).collect();
        let groups: Vec<u64> = (0..n).map(|i| (i % 20) as u64).collect();
        let fit = RandomIntercept::default()
            .fit(&y, &intercept_design(n), &groups)
            .unwrap();
        assert!(fit.sigma2_u < 0.1 * fit.sigma2_e, "sigma2_u {}", fit.sigma2_u);
        let mean = y.iter().sum::<f64>() / n as f64;
        assert!((fit.fixed[0] - mean).abs() < 0.05);
        // BLUPs all shrink towards zero.
        for g in &fit.groups {
            assert!(g.blup.abs() < 1.0);
        }
    }

    #[test]
    fn blups_shrink_small_groups_more() {
        let mut rng = TestRng(0x5EED);
        let mut y = Vec::new();
        let mut groups = Vec::new();
        // Group 0: 3 points at +5; group 1: 300 points at +5; many baseline
        // groups at 0.
        for _ in 0..3 {
            y.push(5.0 + 0.1 * rng.normal());
            groups.push(0u64);
        }
        for _ in 0..300 {
            y.push(5.0 + 0.1 * rng.normal());
            groups.push(1u64);
        }
        for g in 2..30u64 {
            for _ in 0..30 {
                y.push(0.0 + 0.1 * rng.normal());
                groups.push(g);
            }
        }
        let n = y.len();
        let fit = RandomIntercept::default()
            .fit(&y, &intercept_design(n), &groups)
            .unwrap();
        let g0 = fit.blup(0).unwrap();
        let g1 = fit.blup(1).unwrap();
        // Both positive, the small group shrunk more relative to the large.
        assert!(g0 > 0.0 && g1 > 0.0);
        assert!(g1 > g0 * 0.99, "large group at least as far out: {g0} vs {g1}");
        // SEs: the small group is less certain.
        let se0 = fit.groups.iter().find(|g| g.key == 0).unwrap().se;
        let se1 = fit.groups.iter().find(|g| g.key == 1).unwrap().se;
        assert!(se0 > se1);
        // Exactly: each BLUP is its cell-mean deviation from b̂₀ shrunk by
        // λn/(1+λn) = σ²ᵤ/(σ²ᵤ+σ²ₑ/n).
        for g in &fit.groups {
            let ys: Vec<f64> = y
                .iter()
                .zip(&groups)
                .filter(|(_, &k)| k == g.key)
                .map(|(v, _)| *v)
                .collect();
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            let ln = fit.lambda * ys.len() as f64;
            let want = ln / (1.0 + ln) * (mean - fit.fixed[0]);
            assert!(
                (g.blup - want).abs() <= 1e-9 * want.abs(),
                "group {}: blup {} vs shrunk mean deviation {want}",
                g.key,
                g.blup
            );
        }
    }

    #[test]
    fn fixed_covariates_recovered() {
        let mut rng = TestRng(0xFEED5EED);
        let mut y = Vec::new();
        let mut xcol = Vec::new();
        let mut groups = Vec::new();
        for g in 0..25u64 {
            let u = 2.0 * rng.normal();
            for _ in 0..25 {
                let x = rng.f64() * 10.0;
                y.push(1.0 + 0.8 * x + u + 0.5 * rng.normal());
                xcol.push(x);
                groups.push(g);
            }
        }
        let n = y.len();
        let mut design = Matrix::zeros(n, 2);
        for i in 0..n {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = xcol[i];
        }
        let fit = RandomIntercept::default().fit(&y, &design, &groups).unwrap();
        assert!((fit.fixed[1] - 0.8).abs() < 0.05, "slope {}", fit.fixed[1]);
        assert!(fit.sigma2_u > 1.0, "group variance found: {}", fit.sigma2_u);
        assert!(fit.fixed_se[1] > 0.0 && fit.fixed_se[1] < 0.1);
    }

    #[test]
    fn variance_test_detects_real_effect() {
        let mut rng = TestRng(0xBEEF);
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for g in 0..20u64 {
            let u = 2.0 * rng.normal();
            for _ in 0..15 {
                y.push(u + rng.normal());
                groups.push(g);
            }
        }
        let n = y.len();
        let fit = RandomIntercept::default()
            .fit(&y, &intercept_design(n), &groups)
            .unwrap();
        let test = fit.variance_test();
        assert!(test.lrt > 10.0, "strong effect: LRT {}", test.lrt);
        assert!(test.p_value < 0.01, "p {}", test.p_value);
    }

    #[test]
    fn variance_test_accepts_null() {
        let mut rng = TestRng(0xFACE);
        let n = 400;
        let y: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let groups: Vec<u64> = (0..n).map(|i| (i % 20) as u64).collect();
        let fit = RandomIntercept::default()
            .fit(&y, &intercept_design(n), &groups)
            .unwrap();
        let test = fit.variance_test();
        assert!(test.p_value > 0.05, "no effect: p {}", test.p_value);
    }

    #[test]
    fn error_cases() {
        let fitter = RandomIntercept::default();
        let x = Matrix::from_rows(3, 1, vec![1.0; 3]);
        assert!(matches!(
            fitter.fit(&[1.0, 2.0], &x, &[0, 0, 0]),
            Err(LmmError::LengthMismatch)
        ));
        let x1 = Matrix::from_rows(1, 1, vec![1.0]);
        assert!(matches!(
            fitter.fit(&[1.0], &x1, &[0]),
            Err(LmmError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn reml_optimum_is_a_minimum() {
        let mut rng = TestRng(0xA11CE);
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for g in 0..15u64 {
            let u = 1.5 * rng.normal();
            for _ in 0..12 {
                y.push(u + rng.normal());
                groups.push(g);
            }
        }
        let n = y.len();
        let fit = RandomIntercept::default()
            .fit(&y, &intercept_design(n), &groups)
            .unwrap();
        // Perturbing λ must not lower the criterion.
        let pre = precompute(&y, &intercept_design(n), &groups).expect("precompute");
        for factor in [0.5, 0.8, 1.25, 2.0] {
            let v = evaluate(&pre, fit.lambda * factor).unwrap().neg2_reml;
            assert!(
                v >= fit.neg2_reml - 1e-6,
                "λ×{factor}: {v} < {}",
                fit.neg2_reml
            );
        }
    }
}
