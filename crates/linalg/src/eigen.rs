//! Eigenvalue utilities.
//!
//! The paper's runaway threshold is the generalized Rayleigh-quotient minimum
//!
//! ```text
//! λ_m = min { θᵀGθ : θᵀDθ = 1 }
//! ```
//!
//! (Theorem 1) which it computes by *binary search on positive definiteness*
//! of `G − i·D` with a Cholesky probe per step. [`generalized_pd_threshold`]
//! runs that bracket policy over one [`ShiftedCholesky`]: `D` touches only
//! the `k` TEC terminal nodes, so the Peltier-free block of `G` is factored
//! once and every probe is a `k×k` Cholesky of the Schur complement on the
//! Peltier nodes (or, when `k` is too large for that to pay, a sparse
//! numeric factor of the whole network). [`ShiftedCholesky::pd_threshold`]
//! runs the same search over a family a caller already holds, and
//! [`ShiftedCholesky::pd_threshold_along`] along a ray of per-node
//! currents (one pin of a multi-pin system).
//! [`generalized_pd_threshold_dense`] keeps the paper's dense per-probe
//! factorization ([`DenseCholesky`]) as the slow oracle.

use std::sync::Arc;

use crate::shifted::check_dim;
use crate::{CholeskyPattern, CsrMatrix, DenseCholesky, DenseMatrix, LinalgError, ShiftedCholesky};

/// Outcome of the positive-definiteness bisection for
/// `λ_m = sup { i ≥ 0 : G − i·D is positive definite }`.
#[derive(Debug, Clone, PartialEq)]
pub struct PdThreshold {
    /// Lower bound on the threshold: `G − lower·D` is positive definite.
    pub lower: f64,
    /// Upper bound: `G − upper·D` is *not* positive definite.
    pub upper: f64,
    /// Bracket probes, with the base factorization counted as the `i = 0`
    /// probe.
    pub probes: usize,
}

impl PdThreshold {
    /// Midpoint estimate of the threshold.
    pub fn estimate(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Width of the bracketing interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Computes `λ_m` by exponential bracketing followed by bisection on the
/// positive definiteness of `G − i·D` — the algorithm of Sec. V.C.1 of the
/// paper, with every probe after the first answered on the Peltier nodes
/// alone.
///
/// `g` must be symmetric positive definite and `d` is a diagonal (passed as
/// its diagonal vector) with at least one strictly positive entry; under
/// those assumptions Theorem 1 guarantees the threshold is finite and the
/// set of feasible `i` is the interval `[0, λ_m)`.
///
/// # Errors
///
/// - [`LinalgError::NotPositiveDefinite`] if `g` itself is not PD (`i = 0`
///   infeasible).
/// - [`LinalgError::InvalidInput`] if `d` has no positive entry (then
///   `G − i·D` stays PD for all `i ≥ 0` and no finite threshold exists), if
///   the dimensions disagree, or if `rel_tol` is not in `(0, 1)`.
/// - [`LinalgError::BudgetExhausted`] if [`DEFAULT_PROBE_BUDGET`] probes
///   are spent before the bracket reaches `rel_tol` (see
///   [`generalized_pd_threshold_budgeted`] for a custom budget).
pub fn generalized_pd_threshold(
    g: &CsrMatrix,
    d: &[f64],
    rel_tol: f64,
) -> Result<PdThreshold, LinalgError> {
    generalized_pd_threshold_budgeted(g, d, rel_tol, DEFAULT_PROBE_BUDGET)
}

/// Default probe budget for [`generalized_pd_threshold`].
///
/// Exponential bracketing to `1e18` costs ~60 probes and bisection to
/// `rel_tol = 1e-15` another ~50, so 4096 leaves two orders of magnitude of
/// headroom for legitimate searches while still bounding adversarial ones.
pub const DEFAULT_PROBE_BUDGET: usize = 4096;

/// [`generalized_pd_threshold`] with an explicit cap on bracket probes.
///
/// `D` is nonzero only on the `k` TEC terminal nodes, so the search builds
/// one [`ShiftedCholesky`] with those nodes as its support and brackets
/// over [`ShiftedCholesky::is_pd_at`] (see
/// [`ShiftedCholesky::pd_threshold`]): under the trailing-block plan
/// `G_AA` is factored once and every probe is a `k×k` Cholesky of
/// `S₀ − i·D_B` (Haynsworth); under the network plan every probe is a
/// sparse numeric factor of `G − i·D`. The bracket policy is the one of
/// [`generalized_pd_threshold_dense`]: the two probe the same currents for
/// as long as their verdicts agree, and their brackets agree to `rel_tol`.
///
/// A hard iteration bound makes the search total: no choice of `g`, `d`, or
/// `rel_tol` that passes validation can loop forever (denormal-scale
/// brackets, for instance, can otherwise bisect for a very long time before
/// the floating-point midpoint reaches a fixed point).
///
/// # Errors
///
/// As [`generalized_pd_threshold`], with [`LinalgError::BudgetExhausted`]
/// carrying `spent == budget == max_probes` once the cap is hit.
pub fn generalized_pd_threshold_budgeted(
    g: &CsrMatrix,
    d: &[f64],
    rel_tol: f64,
    max_probes: usize,
) -> Result<PdThreshold, LinalgError> {
    validate_threshold_inputs(g.rows(), g.cols(), d, rel_tol, max_probes)?;
    let support: Vec<usize> = (0..d.len()).filter(|&k| d[k] != 0.0).collect();
    let family = ShiftedCholesky::new(g, d, &support, || {
        Ok(Arc::new(CholeskyPattern::analyse_csr(g)?))
    })
    // G ≻ 0 needs G_AA ≻ 0: a failure here is the i = 0 verdict.
    .map_err(|e| match e {
        LinalgError::NotPositiveDefinite { .. } => LinalgError::NotPositiveDefinite { pivot: 0 },
        other => other,
    })?;
    family.pd_threshold(rel_tol, max_probes)
}

impl ShiftedCholesky {
    /// The `λ_m` search of [`generalized_pd_threshold_budgeted`] over this
    /// family's own [`ShiftedCholesky::is_pd_at`], so a placement's
    /// runaway limit and its steady solves share one factorization.
    ///
    /// # Errors
    ///
    /// As [`generalized_pd_threshold_budgeted`], minus the dimension
    /// checks the family has already passed.
    pub fn pd_threshold(
        &self,
        rel_tol: f64,
        max_probes: usize,
    ) -> Result<PdThreshold, LinalgError> {
        validate_search(self.d_support(), rel_tol, max_probes)?;
        bracket_pd_threshold(rel_tol, max_probes, |i| self.is_pd_at(i))
    }

    /// The same search along a ray of per-node currents: the least upper
    /// bound of the `t ≥ 0` at which support node `r` (in
    /// [`ShiftedCholesky::support`] order) carries `base[r] + t·axis[r]`
    /// and the family stays positive definite
    /// ([`ShiftedCholesky::factor_at_each`]). With `base` zero and `axis`
    /// one this is [`ShiftedCholesky::pd_threshold`]; a multi-pin system
    /// finds one pin's limit with the others held by setting `axis` to one
    /// on that pin's nodes and zero elsewhere.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] unless `base` and `axis` hold
    ///   one value per support node.
    /// - As [`ShiftedCholesky::pd_threshold`] for `D` weighted by `axis`:
    ///   [`LinalgError::InvalidInput`] if no node with `axis[r]·d_r > 0`
    ///   exists, [`LinalgError::NotPositiveDefinite`] if `base` itself is
    ///   outside the positive-definite region.
    pub fn pd_threshold_along(
        &self,
        base: &[f64],
        axis: &[f64],
        rel_tol: f64,
        max_probes: usize,
    ) -> Result<PdThreshold, LinalgError> {
        check_dim(self.support().len(), base)?;
        check_dim(self.support().len(), axis)?;
        let d_axis: Vec<f64> = axis
            .iter()
            .zip(self.d_support())
            .map(|(a, d)| a * d)
            .collect();
        validate_search(&d_axis, rel_tol, max_probes)?;
        bracket_pd_threshold(rel_tol, max_probes, |t| {
            self.is_pd_with(|r| base[r] + t * axis[r])
        })
    }
}

/// The slow oracle for [`generalized_pd_threshold_budgeted`]: the same
/// bracket policy with a fresh dense `O(n³)` Cholesky ([`DenseCholesky`])
/// of `G − i·D` at every probe, exactly as the paper describes the search.
/// Tests compare the Peltier-block search against it.
///
/// # Errors
///
/// Same contract as [`generalized_pd_threshold_budgeted`].
pub fn generalized_pd_threshold_dense(
    g: &DenseMatrix,
    d: &[f64],
    rel_tol: f64,
    max_probes: usize,
) -> Result<PdThreshold, LinalgError> {
    validate_threshold_inputs(g.rows(), g.cols(), d, rel_tol, max_probes)?;
    bracket_pd_threshold(rel_tol, max_probes, |i| {
        let mut m = g.clone();
        m.add_scaled_diagonal(d, -i)?;
        Ok(DenseCholesky::factor(&m).is_ok())
    })
}

/// The preconditions both searches share, checked in the same order, for a
/// `rows × cols` matrix `G`.
fn validate_threshold_inputs(
    rows: usize,
    cols: usize,
    d: &[f64],
    rel_tol: f64,
    max_probes: usize,
) -> Result<(), LinalgError> {
    if d.len() != rows {
        return Err(LinalgError::DimensionMismatch {
            expected: rows,
            actual: d.len(),
        });
    }
    validate_search(d, rel_tol, max_probes)?;
    if rows != cols {
        return Err(LinalgError::NotSquare { rows, cols });
    }
    Ok(())
}

/// The preconditions of a bracket over `D` (all of it, or its support).
fn validate_search(d: &[f64], rel_tol: f64, max_probes: usize) -> Result<(), LinalgError> {
    if !(rel_tol > 0.0 && rel_tol < 1.0) {
        return Err(LinalgError::InvalidInput(format!(
            "relative tolerance must be in (0, 1), got {rel_tol}"
        )));
    }
    if !d.iter().any(|&x| x > 0.0) {
        return Err(LinalgError::InvalidInput(
            "d has no positive entry; G - i*D remains positive definite for all i".into(),
        ));
    }
    if max_probes == 0 {
        return Err(LinalgError::BudgetExhausted {
            spent: 0,
            budget: 0,
        });
    }
    Ok(())
}

/// The bracket policy of the `λ_m` search over a positive-definiteness
/// oracle `is_pd(i)`: the `i = 0` probe, exponential doubling from `1.0` to
/// a guaranteed-infeasible upper bound (at most `1e18`), then bisection to
/// `rel_tol`. Every oracle call counts against `max_probes`.
fn bracket_pd_threshold(
    rel_tol: f64,
    max_probes: usize,
    mut is_pd: impl FnMut(f64) -> Result<bool, LinalgError>,
) -> Result<PdThreshold, LinalgError> {
    let mut probes = 0usize;
    let mut pd_at = |i: f64| -> Result<bool, LinalgError> {
        if probes >= max_probes {
            return Err(LinalgError::BudgetExhausted {
                spent: probes,
                budget: max_probes,
            });
        }
        probes += 1;
        is_pd(i)
    };
    if !pd_at(0.0)? {
        return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
    }
    // A guaranteed-infeasible upper bound: at i = g_max_diag / d_max_pos the
    // most Peltier-loaded diagonal entry of G - i*D is <= 0, so the matrix
    // cannot be PD. Still grow exponentially from a small start so typical
    // cases use few probes.
    let mut lower = 0.0_f64;
    let mut upper = {
        let mut u = 1.0_f64;
        while pd_at(u)? {
            lower = u;
            u *= 2.0;
            if u > 1e18 {
                return Err(LinalgError::NoConvergence {
                    iterations: probes,
                    residual: u,
                });
            }
        }
        u
    };
    while (upper - lower) > rel_tol * upper.max(1e-300) {
        let mid = 0.5 * (lower + upper);
        if mid <= lower || mid >= upper {
            // The floating-point midpoint reached a fixed point: the bracket
            // is one ULP wide and cannot shrink further, so requesting a
            // tighter rel_tol would spin forever. Accept the bracket.
            break;
        }
        if pd_at(mid)? {
            lower = mid;
        } else {
            upper = mid;
        }
    }
    Ok(PdThreshold {
        lower,
        upper,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(g: &DenseMatrix) -> CsrMatrix {
        CsrMatrix::from_dense(g)
    }

    #[test]
    fn pd_threshold_on_diagonal_case() {
        // G = diag(2, 4), D = diag(1, 1): threshold at i = 2.
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        let t = generalized_pd_threshold(&csr(&g), &[1.0, 1.0], 1e-10).unwrap();
        assert!((t.estimate() - 2.0).abs() < 1e-8);
        assert!(t.lower <= 2.0 && 2.0 <= t.upper);
    }

    #[test]
    fn pd_threshold_with_negative_d_entries() {
        // D with a negative entry only *helps* definiteness on that axis:
        // G = diag(2, 4), D = diag(1, -1): still limited by the first axis.
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        let t = generalized_pd_threshold(&csr(&g), &[1.0, -1.0], 1e-10).unwrap();
        assert!((t.estimate() - 2.0).abs() < 1e-8);
    }

    #[test]
    fn pd_threshold_coupled_case_matches_rayleigh() {
        // 2x2 case solvable by hand: G = [[3,-1],[-1,3]], D = diag(1,0).
        // lambda_m = min over x of xGx / x1^2. Parametrize x = (1, t):
        // f(t) = 3 - 2t + 3t^2 minimized at t = 1/3 -> f = 8/3.
        let g = DenseMatrix::from_rows(&[&[3.0, -1.0], &[-1.0, 3.0]]).unwrap();
        let t = generalized_pd_threshold(&csr(&g), &[1.0, 0.0], 1e-12).unwrap();
        assert!((t.estimate() - 8.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn pd_threshold_requires_positive_d_entry() {
        let g = DenseMatrix::identity(2);
        let err = generalized_pd_threshold(&csr(&g), &[0.0, -1.0], 1e-9).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
    }

    #[test]
    fn pd_threshold_rejects_indefinite_g() {
        let g = DenseMatrix::from_diagonal(&[-1.0, 1.0]);
        let err = generalized_pd_threshold(&csr(&g), &[1.0, 1.0], 1e-9).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn pd_threshold_validates_inputs() {
        let g = DenseMatrix::identity(2);
        assert!(generalized_pd_threshold(&csr(&g), &[1.0], 1e-9).is_err());
        assert!(generalized_pd_threshold(&csr(&g), &[1.0, 1.0], 0.0).is_err());
        assert!(generalized_pd_threshold(&csr(&g), &[1.0, 1.0], 1.5).is_err());
    }

    #[test]
    fn pd_threshold_budget_exhaustion_is_an_error_not_a_hang() {
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        // Three probes are not enough to even finish bracketing to i = 2.
        let err = generalized_pd_threshold_budgeted(&csr(&g), &[1.0, 1.0], 1e-12, 3).unwrap_err();
        assert_eq!(
            err,
            LinalgError::BudgetExhausted {
                spent: 3,
                budget: 3
            }
        );
        let err = generalized_pd_threshold_budgeted(&csr(&g), &[1.0, 1.0], 1e-12, 0).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::BudgetExhausted { budget: 0, .. }
        ));
    }

    #[test]
    fn pd_threshold_ulp_wide_bracket_terminates() {
        // rel_tol below machine epsilon: the bisection bracket bottoms out at
        // one ULP and must stop via the midpoint fixed-point guard instead of
        // spinning until the probe budget trips.
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        let t =
            generalized_pd_threshold_budgeted(&csr(&g), &[1.0, 1.0], 1e-300, usize::MAX).unwrap();
        assert!(t.probes < 200, "spent {} probes", t.probes);
        assert!((t.estimate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn default_budget_covers_legitimate_searches() {
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        let t = generalized_pd_threshold(&csr(&g), &[1.0, 1.0], 1e-15).unwrap();
        assert!(t.probes < DEFAULT_PROBE_BUDGET / 10);
    }

    #[test]
    fn dense_oracle_validates_like_the_schur_search() {
        type Search = dyn Fn(&DenseMatrix, &[f64], f64, usize) -> Result<PdThreshold, LinalgError>;
        let schur = |g: &DenseMatrix, d: &[f64], tol: f64, probes: usize| {
            generalized_pd_threshold_budgeted(&csr(g), d, tol, probes)
        };
        let g = DenseMatrix::identity(2);
        let searches: [&Search; 2] = [&schur, &generalized_pd_threshold_dense];
        for search in searches {
            assert!(matches!(
                search(&g, &[1.0], 1e-9, 100),
                Err(LinalgError::DimensionMismatch { .. })
            ));
            assert!(search(&g, &[1.0, 1.0], 0.0, 100).is_err());
            assert!(search(&g, &[0.0, -1.0], 1e-9, 100).is_err());
            assert!(matches!(
                search(&g, &[1.0, 1.0], 1e-9, 0),
                Err(LinalgError::BudgetExhausted { budget: 0, .. })
            ));
            assert!(matches!(
                search(&DenseMatrix::zeros(2, 3), &[1.0, 1.0], 1e-9, 100),
                Err(LinalgError::NotSquare { rows: 2, cols: 3 })
            ));
            // Indefinite with every node Peltier-loaded, then on the
            // Peltier-free block alone.
            let indef = DenseMatrix::from_diagonal(&[-1.0, 1.0]);
            assert!(matches!(
                search(&indef, &[1.0, 1.0], 1e-9, 100),
                Err(LinalgError::NotPositiveDefinite { pivot: 0 })
            ));
            assert!(matches!(
                search(&indef, &[0.0, 1.0], 1e-9, 100),
                Err(LinalgError::NotPositiveDefinite { pivot: 0 })
            ));
            let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
            assert_eq!(
                search(&g, &[1.0, 1.0], 1e-12, 3),
                Err(LinalgError::BudgetExhausted {
                    spent: 3,
                    budget: 3
                })
            );
        }
    }

    #[test]
    fn threshold_along_an_axis_holds_the_other_nodes() {
        // G = diag(2, 4, 3), D = I on every node.
        let g = csr(&DenseMatrix::from_diagonal(&[2.0, 4.0, 3.0]));
        let fam = ShiftedCholesky::new(&g, &[1.0; 3], &[0, 1, 2], || {
            Ok(Arc::new(CholeskyPattern::analyse_csr(&g)?))
        })
        .unwrap();
        // The uniform ray is the plain search.
        assert_eq!(
            fam.pd_threshold_along(&[0.0; 3], &[1.0; 3], 1e-10, 100),
            fam.pd_threshold(1e-10, 100)
        );
        // Node 0 held at 1.5 A, nodes 1 and 2 along the ray: node 2 binds.
        let t = fam
            .pd_threshold_along(&[1.5, 0.0, 0.0], &[0.0, 1.0, 1.0], 1e-10, 100)
            .unwrap();
        assert!((t.estimate() - 3.0).abs() < 1e-8, "{t:?}");
        // A held node already past its limit.
        assert!(matches!(
            fam.pd_threshold_along(&[2.5, 0.0, 0.0], &[0.0, 1.0, 1.0], 1e-10, 100),
            Err(LinalgError::NotPositiveDefinite { pivot: 0 })
        ));
        // A ray that loads no node, and a wrong length.
        assert!(matches!(
            fam.pd_threshold_along(&[0.0; 3], &[0.0; 3], 1e-10, 100),
            Err(LinalgError::InvalidInput(_))
        ));
        assert!(matches!(
            fam.pd_threshold_along(&[0.0; 2], &[1.0; 3], 1e-10, 100),
            Err(LinalgError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn threshold_matches_generalized_eigen_on_random_stieltjes() {
        use crate::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};
        let mut rng = seeded_rng(11);
        let g = random_stieltjes(
            StieltjesSampler {
                dim: 6,
                ..StieltjesSampler::default()
            },
            &mut rng,
        );
        // D: alternate +1 / -1 / 0 as in TEC hot/cold/other nodes.
        let d: Vec<f64> = (0..6)
            .map(|k| match k % 3 {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0,
            })
            .collect();
        let t = generalized_pd_threshold(&csr(&g), &d, 1e-11).unwrap();
        // The threshold is the smallest generalized eigenvalue: a dense
        // factorization of G - i*D, independent of the Schur-complement
        // probes, succeeds just below it and fails just above it.
        let shifted = |i: f64| {
            let mut m = g.clone();
            m.add_scaled_diagonal(&d, -i).unwrap();
            DenseCholesky::factor(&m)
        };
        assert!(shifted(t.estimate() * (1.0 - 1e-6)).is_ok());
        assert!(matches!(
            shifted(t.estimate() * (1.0 + 1e-6)),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }
}
