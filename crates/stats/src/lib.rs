//! Statistical analysis substrate (§V of the paper).
//!
//! The paper's analysis layer needs six-number summaries (Table 4,
//! Table 5), ordinary linear regression (Eq. 1), and linear mixed models
//! with a Gaussian random intercept per 200 m grid cell estimated by REML
//! with BLUP predictions and confidence limits (Eq. 2–3, Figs. 7–9). The
//! original study used R; this crate implements the required estimators
//! from first principles:
//!
//! * [`Summary`] — min / 1st quartile / median / mean / 3rd quartile / max
//!   with R's default (type-7) quantile convention, plus variance;
//! * [`normal`] — standard normal pdf/cdf/quantile (Acklam's inverse);
//! * [`Matrix`] — small dense matrices with Cholesky factorisation;
//! * [`OlsFit`] — ordinary least squares;
//! * [`LmmFit`] — the single-grouping-factor linear mixed model: exact
//!   O(n) profiled REML likelihood via per-group Woodbury identities,
//!   Brent optimisation of the variance ratio, BLUPs with prediction
//!   standard errors;
//! * `qq` — normal QQ-plot data (Fig. 7);
//! * [`brent_min`] — 1-D function minimisation.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod corr;
mod histogram;
mod lmm;
mod matrix;
pub mod normal;
mod ols;
mod optimize;
mod qq;
mod summary;

pub use corr::{pearson, spearman};
pub use histogram::Histogram;
pub use lmm::{GroupEffect, LmmError, LmmFit, RandomIntercept};
pub use matrix::{Matrix, MatrixError};
pub use ols::{design_with_intercept, ols_fit, OlsError, OlsFit};
pub use optimize::brent_min;
pub use qq::{qq_points, QqPoint};
pub use summary::Summary;
