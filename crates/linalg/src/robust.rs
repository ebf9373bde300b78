//! Hardened linear solves: condition-monitored factorization with a bounded
//! fallback chain.
//!
//! Every steady-state evaluation in the paper is a solve of the symmetric
//! system `(G − i·D)·θ = p` (Eq. 4). Far from the runaway limit `λ_m` that
//! matrix is comfortably positive definite and a plain Cholesky solve is
//! optimal. *Near* `λ_m` — exactly the region the `λ_m` bisection and the
//! current optimizer probe — it approaches singularity: Cholesky can break
//! down on a matrix that is still mathematically positive definite, and a
//! factorization that succeeds may return temperatures with no correct
//! digits, silently.
//!
//! [`solve_robust`] makes that regime explicit instead of silent:
//!
//! 1. **Cholesky** (sparse `P·A·Pᵀ = L·Lᵀ`) — the fast path. The pivot-ratio condition
//!    estimate is always computed; results above
//!    [`SolverPolicy::warn_condition`] are flagged
//!    [`SolveDiagnostics::degraded`], results above
//!    [`SolverPolicy::fail_condition`] are rejected.
//! 2. **LU with partial pivoting** — survives Cholesky breakdown on
//!    borderline-definite matrices; the solution is residual-checked against
//!    the original system before being accepted.
//! 3. **Tikhonov-regularized Cholesky** — a bounded sequence of retries on
//!    `A + μ·I` with growing `μ`; physically, adding a tiny uniform thermal
//!    conductance to ground, which bounds the temperature estimate from
//!    below.
//!
//! Every stage is budgeted, every outcome carries [`SolveDiagnostics`]
//! (method used, fallbacks taken, condition estimate, regularization), and
//! exhausting the chain returns the *root-cause* error rather than looping.

use crate::{Cholesky, DenseMatrix, LinalgError, Lu};

/// Budgets and thresholds for the robust solve chain.
///
/// The defaults suit the compact thermal models of the paper (hundreds of
/// nodes, entries spanning ~6 orders of magnitude). `strict()` disables the
/// fallbacks for callers that use Cholesky failure as a *signal* (the
/// runaway detection of Theorem 1) rather than a nuisance.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverPolicy {
    /// Condition estimate above which a solution is flagged
    /// [`SolveDiagnostics::degraded`] (default `1e12`).
    pub warn_condition: f64,
    /// Condition estimate above which a stage's result is rejected and the
    /// next fallback engages (default `1e15`).
    pub fail_condition: f64,
    /// Relative residual above which a fallback solution is rejected
    /// (default `1e-6`).
    pub max_residual: f64,
    /// How many fallback stages may engage after Cholesky: `0` = none,
    /// `1` = LU, `2` = LU then regularization (default `2`).
    pub max_fallbacks: usize,
    /// Initial Tikhonov shift relative to the largest diagonal magnitude
    /// (default `1e-12`).
    pub regularization_scale: f64,
    /// Growth factor of the shift between regularized retries (default
    /// `1e3`).
    pub regularization_growth: f64,
    /// Bounded number of regularized retries (default `3`).
    pub max_regularization_attempts: usize,
}

impl Default for SolverPolicy {
    fn default() -> SolverPolicy {
        SolverPolicy {
            warn_condition: 1e12,
            fail_condition: 1e15,
            max_residual: 1e-6,
            max_fallbacks: 2,
            regularization_scale: 1e-12,
            regularization_growth: 1e3,
            max_regularization_attempts: 3,
        }
    }
}

impl SolverPolicy {
    /// A policy with no fallbacks: Cholesky either succeeds (with condition
    /// monitoring) or the original failure is returned. This preserves
    /// "factorization failed ⇒ not positive definite ⇒ thermal runaway"
    /// semantics for the definiteness oracle.
    pub fn strict() -> SolverPolicy {
        SolverPolicy {
            max_fallbacks: 0,
            ..SolverPolicy::default()
        }
    }

    /// Validates the policy's own numbers.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for non-finite or out-of-range
    /// thresholds.
    pub fn validate(&self) -> Result<(), LinalgError> {
        let checks = [
            ("warn_condition", self.warn_condition, 1.0),
            ("fail_condition", self.fail_condition, 1.0),
            ("max_residual", self.max_residual, 0.0),
            ("regularization_scale", self.regularization_scale, 0.0),
            ("regularization_growth", self.regularization_growth, 1.0),
        ];
        for (what, v, lo) in checks {
            if !v.is_finite() || v <= lo {
                return Err(LinalgError::InvalidInput(format!(
                    "solver policy {what} must be finite and > {lo}, got {v}"
                )));
            }
        }
        if self.warn_condition > self.fail_condition {
            return Err(LinalgError::InvalidInput(format!(
                "warn_condition {} exceeds fail_condition {}",
                self.warn_condition, self.fail_condition
            )));
        }
        Ok(())
    }
}

/// Which stage of the chain produced a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Plain Cholesky on the original matrix.
    Cholesky,
    /// LU with partial pivoting after Cholesky failed or was rejected.
    Lu,
    /// Cholesky on the Tikhonov-shifted matrix `A + μ·I`.
    RegularizedCholesky,
    /// Jacobi-preconditioned conjugate gradients on a CSR copy (the
    /// explicit CG backend of [`crate::FactoredSystem`]; never produced by
    /// [`solve_robust`] itself).
    SparseCg,
}

/// How a solution was obtained and how much it should be trusted.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveDiagnostics {
    /// Stage that produced the accepted solution.
    pub method: SolveMethod,
    /// Fallback stages engaged before acceptance (0 = fast path).
    pub fallbacks_taken: usize,
    /// Pivot-ratio condition estimate of the accepted factorization.
    pub condition_estimate: f64,
    /// Tikhonov shift `μ` actually applied (`0.0` when none).
    pub regularization: f64,
    /// `true` when the result warrants caution: the condition estimate
    /// exceeded [`SolverPolicy::warn_condition`] or any fallback engaged.
    pub degraded: bool,
}

/// A solution plus its [`SolveDiagnostics`].
#[derive(Debug, Clone, PartialEq)]
pub struct RobustSolution {
    /// The solution vector `x` of `A·x = b`.
    pub x: Vec<f64>,
    /// Provenance and trust metadata.
    pub diagnostics: SolveDiagnostics,
}

/// Relative ∞-norm residual `‖A·x − b‖ / (‖b‖ + ‖A‖·‖x‖)`.
fn relative_residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = match a.mul_vec(x) {
        Ok(v) => v,
        Err(_) => return f64::INFINITY,
    };
    let num = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0_f64, f64::max);
    let scale = b.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
        + a.max_abs() * x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if scale == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / scale
    }
}

/// Solves the symmetric system `A·x = b` through the Cholesky → LU →
/// Tikhonov fallback chain described in the module docs.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] for
///   shape violations.
/// - [`LinalgError::NonFiniteEntry`] / [`LinalgError::InvalidInput`] for NaN
///   or infinite entries in `a` or `b` — checked up front so poison never
///   reaches a factorization.
/// - The *root-cause* stage-1 error ([`LinalgError::NotPositiveDefinite`] or
///   [`LinalgError::IllConditioned`]) when every permitted fallback also
///   fails or is rejected.
pub fn solve_robust(
    a: &DenseMatrix,
    b: &[f64],
    policy: &SolverPolicy,
) -> Result<RobustSolution, LinalgError> {
    policy.validate()?;
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            expected: a.rows(),
            actual: b.len(),
        });
    }
    a.ensure_finite()?;
    if let Some(i) = b.iter().position(|v| !v.is_finite()) {
        return Err(LinalgError::InvalidInput(format!(
            "right-hand side entry {i} is {}",
            b[i]
        )));
    }

    // Stage 0: Cholesky fast path with condition monitoring.
    let mut fallbacks = 0usize;
    let root_cause = match Cholesky::factor(a) {
        Ok(chol) => {
            let cond = chol.condition_estimate();
            if cond <= policy.fail_condition {
                let x = chol.solve(b)?;
                return Ok(RobustSolution {
                    x,
                    diagnostics: SolveDiagnostics {
                        method: SolveMethod::Cholesky,
                        fallbacks_taken: 0,
                        condition_estimate: cond,
                        regularization: 0.0,
                        degraded: cond > policy.warn_condition,
                    },
                });
            }
            LinalgError::IllConditioned { estimate: cond }
        }
        Err(e) => e,
    };

    // Stage 1: LU with partial pivoting, residual-checked.
    if fallbacks < policy.max_fallbacks {
        fallbacks += 1;
        if let Ok(lu) = Lu::factor(a) {
            let cond = lu.condition_estimate();
            if cond <= policy.fail_condition {
                if let Ok(x) = lu.solve(b) {
                    if relative_residual(a, &x, b) <= policy.max_residual {
                        return Ok(RobustSolution {
                            x,
                            diagnostics: SolveDiagnostics {
                                method: SolveMethod::Lu,
                                fallbacks_taken: fallbacks,
                                condition_estimate: cond,
                                regularization: 0.0,
                                degraded: true,
                            },
                        });
                    }
                }
            }
        }
    }

    // Stage 2: Tikhonov-regularized Cholesky, bounded retries with growing
    // shift.
    if fallbacks < policy.max_fallbacks {
        fallbacks += 1;
        let diag_scale = a
            .diagonal()
            .iter()
            .fold(0.0_f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let mut mu = policy.regularization_scale * diag_scale;
        for _ in 0..policy.max_regularization_attempts {
            let mut shifted = a.clone();
            let ones = vec![1.0; a.rows()];
            shifted.add_scaled_diagonal(&ones, mu)?;
            if let Ok(chol) = Cholesky::factor(&shifted) {
                let cond = chol.condition_estimate();
                if cond <= policy.fail_condition {
                    let x = chol.solve(b)?;
                    return Ok(RobustSolution {
                        x,
                        diagnostics: SolveDiagnostics {
                            method: SolveMethod::RegularizedCholesky,
                            fallbacks_taken: fallbacks,
                            condition_estimate: cond,
                            regularization: mu,
                            degraded: true,
                        },
                    });
                }
            }
            mu *= policy.regularization_growth;
        }
    }

    Err(root_cause)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap()
    }

    #[test]
    fn fast_path_is_cholesky_with_clean_diagnostics() {
        let sol = solve_robust(&spd3(), &[1.0, -2.0, 0.5], &SolverPolicy::default()).unwrap();
        assert_eq!(sol.diagnostics.method, SolveMethod::Cholesky);
        assert_eq!(sol.diagnostics.fallbacks_taken, 0);
        assert!(!sol.diagnostics.degraded);
        assert!(sol.diagnostics.condition_estimate >= 1.0);
        assert_eq!(sol.diagnostics.regularization, 0.0);
        let r = relative_residual(&spd3(), &sol.x, &[1.0, -2.0, 0.5]);
        assert!(r < 1e-12, "residual {r}");
    }

    #[test]
    fn cholesky_breakdown_falls_back_to_lu_with_diagnostic() {
        // Mathematically this matrix is positive definite only marginally;
        // in f64 the second Cholesky pivot computes as 1 − 1e18 < 0, so
        // Cholesky reports NotPositiveDefinite. Partially pivoted LU solves
        // it fine.
        let a = DenseMatrix::from_rows(&[&[1e-18, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let b = [1.0, 2.0];
        let sol = solve_robust(&a, &b, &SolverPolicy::default()).unwrap();
        assert_eq!(sol.diagnostics.method, SolveMethod::Lu);
        assert_eq!(sol.diagnostics.fallbacks_taken, 1);
        assert!(sol.diagnostics.degraded, "fallback must flag degradation");
        assert!(relative_residual(&a, &sol.x, &b) < 1e-10);
    }

    #[test]
    fn doubly_degenerate_system_reaches_regularization() {
        // 1 + 1e-18 rounds to 1, so this matrix is exactly singular in f64:
        // Cholesky hits a zero pivot and LU a zero second pivot. Only the
        // Tikhonov stage can produce an answer.
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-18]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
        let policy = SolverPolicy {
            regularization_scale: 1e-9,
            ..SolverPolicy::default()
        };
        let sol = solve_robust(&a, &[2.0, 2.0], &policy).unwrap();
        assert_eq!(sol.diagnostics.method, SolveMethod::RegularizedCholesky);
        assert_eq!(sol.diagnostics.fallbacks_taken, 2);
        assert!(sol.diagnostics.regularization > 0.0);
        assert!(sol.diagnostics.degraded);
        // The regularized solution of [[1,1],[1,1]]x = [2,2] is x ≈ [1, 1].
        assert!((sol.x[0] - 1.0).abs() < 1e-3 && (sol.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn strict_policy_preserves_the_runaway_signal() {
        let indefinite = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let err = solve_robust(&indefinite, &[1.0, 1.0], &SolverPolicy::strict()).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn exhausted_chain_returns_root_cause() {
        // Exactly singular, and with a microscopic regularization budget the
        // shifted matrix stays singular to machine precision.
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let policy = SolverPolicy {
            regularization_scale: 1e-30,
            regularization_growth: 2.0,
            max_regularization_attempts: 1,
            ..SolverPolicy::default()
        };
        let err = solve_robust(&a, &[1.0, 1.0], &policy).unwrap_err();
        assert!(
            matches!(err, LinalgError::NotPositiveDefinite { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn poisoned_inputs_are_rejected_up_front() {
        let mut a = spd3();
        a[(1, 1)] = f64::NAN;
        assert!(matches!(
            solve_robust(&a, &[1.0, 1.0, 1.0], &SolverPolicy::default()),
            Err(LinalgError::NonFiniteEntry { row: 1, col: 1 })
        ));
        let err = solve_robust(
            &spd3(),
            &[1.0, f64::INFINITY, 0.0],
            &SolverPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert!(solve_robust(&spd3(), &[1.0], &SolverPolicy::default()).is_err());
        assert!(solve_robust(
            &DenseMatrix::zeros(2, 3),
            &[1.0, 1.0],
            &SolverPolicy::default()
        )
        .is_err());
    }

    #[test]
    fn invalid_policy_is_rejected() {
        for bad in [
            SolverPolicy {
                warn_condition: f64::NAN,
                ..SolverPolicy::default()
            },
            SolverPolicy {
                fail_condition: 0.5,
                ..SolverPolicy::default()
            },
            SolverPolicy {
                warn_condition: 1e16,
                fail_condition: 1e12,
                ..SolverPolicy::default()
            },
            SolverPolicy {
                regularization_growth: 0.5,
                ..SolverPolicy::default()
            },
        ] {
            assert!(matches!(
                solve_robust(&spd3(), &[1.0, 1.0, 1.0], &bad),
                Err(LinalgError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn ill_conditioned_but_factorable_matrix_is_flagged() {
        // diag(1, 1e-13): Cholesky succeeds, condition estimate 1e13 sits
        // between warn (1e12) and fail (1e15) → degraded fast path.
        let a = DenseMatrix::from_diagonal(&[1.0, 1e-13]);
        let sol = solve_robust(&a, &[1.0, 1.0], &SolverPolicy::default()).unwrap();
        assert_eq!(sol.diagnostics.method, SolveMethod::Cholesky);
        assert!(sol.diagnostics.degraded);
        assert!(sol.diagnostics.condition_estimate > 1e12);
    }
}
