//! `tecopt` — design and optimization of an on-chip active cooling system
//! based on thin-film thermoelectric coolers.
//!
//! This crate reproduces the system-level contribution of *Long, Ogrenci
//! Memik & Grayson, DATE 2010*: given a chip package, a TEC device
//! technology and the worst-case power of every die tile, decide **where**
//! to deploy TEC devices and **how much** shared supply current to drive
//! them with, so the peak steady-state silicon temperature stays below a
//! limit — while avoiding the *thermal runaway* that an excessive current
//! or an excessive number of devices causes.
//!
//! The moving parts, in the paper's order:
//!
//! - [`CoolingSystem`] — the `(G − i·D)·θ = p(i)` steady-state model
//!   (Eq. 4) assembled from the `tecopt-thermal` and `tecopt-device`
//!   substrates,
//! - [`runaway_limit`] — the current limit `λ_m` beyond which no steady
//!   state exists (Theorem 1, found by Cholesky-probe bisection),
//! - [`optimize_current`] — Problem 2, the convex peak-temperature
//!   minimization over `[0, λ_m)` (golden section, or the paper's gradient
//!   descent),
//! - [`certify_convexity`] — the Lemma-4/Theorem-4 sufficient condition
//!   certifying that every tile temperature is convex in the current,
//! - [`greedy_deploy`] / [`full_cover`] — Problem 1, the `GreedyDeploy`
//!   algorithm of Fig. 5 and the all-tiles baseline it beats in Table I,
//! - [`runaway`] — sweeps demonstrating the runaway phenomenon,
//! - [`conjecture`] — randomized verification of Conjecture 1,
//! - [`report`] — Table-I rows and Fig.-7 deployment maps.
//!
//! # Quick start
//!
//! ```
//! use tecopt::{greedy_deploy, CoolingSystem, DeploySettings};
//! use tecopt_device::TecParams;
//! use tecopt_thermal::PackageConfig;
//! use tecopt_units::{Celsius, Watts};
//!
//! # fn main() -> Result<(), tecopt::OptError> {
//! // A small 4x4-tile package with one strong hotspot.
//! let config = PackageConfig::hotspot41_like(4, 4)?;
//! let mut powers = vec![Watts(0.08); 16];
//! powers[5] = Watts(0.6);
//! let base = CoolingSystem::without_devices(
//!     &config,
//!     TecParams::superlattice_thin_film(),
//!     powers,
//! )?;
//!
//! // Ask for a peak temperature 1 °C below the uncooled peak.
//! let uncooled = base.solve(tecopt_units::Amperes(0.0))?.peak();
//! let limit = Celsius(uncooled.value() - 1.0);
//! let outcome = greedy_deploy(&base, DeploySettings::with_limit(limit))?;
//! assert!(outcome.is_satisfied());
//! let d = outcome.deployment();
//! println!(
//!     "{} TECs at {:.2}, peak {:.2}",
//!     d.device_count(),
//!     d.optimum().current(),
//!     d.optimum().state().peak(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod conjecture;
mod convexity;
mod current;
mod deploy;
pub mod designer;
pub mod envelope;
mod error;
mod lambda;
pub mod multipin;
pub mod parallel;
pub mod record;
pub mod report;
pub mod runaway;
pub mod supervise;
mod system;
pub mod theory;
pub mod transient;

pub use convexity::{
    certify_convexity, certify_convexity_supervised, eta, eta_and_derivative, h_column, h_columns,
    CertificateOutcome, ConvexityCertificate, ConvexitySettings,
};
pub use current::{
    optimize_current, optimize_current_with, CurrentMethod, CurrentOptimum, CurrentSettings,
};
pub use deploy::{
    evaluate_deployments, evaluate_deployments_supervised, full_cover, greedy_deploy,
    greedy_deploy_checked, greedy_deploy_supervised, DeployFailure, DeployIteration, DeployOutcome,
    DeploySettings, Deployment,
};
pub use envelope::{
    EnvelopeEvent, EnvelopeSettings, EnvelopedController, SafetyEnvelope, ViolationKind,
};
pub use error::OptError;
pub use lambda::{runaway_limit, runaway_limit_fast, RunawayLimit};
pub use supervise::{score_candidates, CandidateScore, RunContext, SweepFailure};
pub use system::{CoolingSystem, FactorStrategy, SolvedState, SteadySolver};

// Cooperative cancellation lives in the kernel crate so the CG loop and the
// supervisor share one token type.
pub use tecopt_linalg::CancelToken;

// What `CoolingSystem::factor_plan` reports.
pub use tecopt_linalg::FactorPlan;

// The substrate types a user of this crate inevitably touches.
pub use tecopt_device::TecParams;
pub use tecopt_thermal::{PackageConfig, TileIndex};
