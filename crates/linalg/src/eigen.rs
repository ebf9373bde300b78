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
//! runs that bracket policy with one factorization per search: `D` touches
//! only the `k` TEC terminal nodes, so the Peltier-free block of `G` is
//! factored once and every probe is a `k×k` Cholesky of the Schur
//! complement on the Peltier nodes. [`generalized_pd_threshold_dense`] keeps
//! the paper's dense per-probe factorization as the slow oracle.
//! [`power_iteration`] and [`min_eigenvalue_symmetric`] support the
//! Conjecture-1 experiments and diagnostics.

use crate::{Cholesky, DenseMatrix, LinalgError};

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
    g: &DenseMatrix,
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
/// `D` is nonzero only on the `k` TEC terminal nodes. Split the nodes into
/// the Peltier-free block `A` and the Peltier-loaded block `B`; by
/// Haynsworth,
///
/// ```text
/// G − i·D ≻ 0   ⇔   G_AA ≻ 0  and  S₀ − i·D_B ≻ 0,
/// S₀ = G_BB − G_BA·G_AA⁻¹·G_AB,
/// ```
///
/// and `S₀` does not depend on `i` (with `B` ordered last, the leading
/// `n − k` columns of the Cholesky factor are the same at every probe).
/// So `G_AA` is factored once, `S₀` is formed with one `k`-column solve,
/// and every probe is a `k×k` Cholesky of `S₀ − i·D_B`. The bracket policy
/// is the one of [`generalized_pd_threshold_dense`]: the two probe the same
/// currents for as long as their verdicts agree, and their brackets agree
/// to `rel_tol`.
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
    g: &DenseMatrix,
    d: &[f64],
    rel_tol: f64,
    max_probes: usize,
) -> Result<PdThreshold, LinalgError> {
    validate_threshold_inputs(g, d, rel_tol, max_probes)?;
    let (peltier, free): (Vec<usize>, Vec<usize>) = (0..d.len()).partition(|&k| d[k] != 0.0);
    let g_aa = submatrix(g, &free, &free);
    // The columns of G_AB, one per Peltier node.
    let g_ab: Vec<Vec<f64>> = peltier
        .iter()
        .map(|&b| free.iter().map(|&a| g[(a, b)]).collect())
        .collect();
    // G ≻ 0 needs G_AA ≻ 0: a failure here is the i = 0 verdict.
    let x = Cholesky::factor(&g_aa)
        .map_err(|_| LinalgError::NotPositiveDefinite { pivot: 0 })?
        .solve_many(&g_ab)?;
    let mut s0 = submatrix(g, &peltier, &peltier);
    for (r, g_ab_r) in g_ab.iter().enumerate() {
        for (c, x_c) in x.iter().enumerate() {
            s0[(r, c)] -= g_ab_r.iter().zip(x_c).map(|(u, v)| u * v).sum::<f64>();
        }
    }
    let d_b: Vec<f64> = peltier.iter().map(|&b| d[b]).collect();
    bracket_pd_threshold(rel_tol, max_probes, |i| {
        let mut m = s0.clone();
        m.add_scaled_diagonal(&d_b, -i)?;
        Ok(Cholesky::factor(&m).is_ok())
    })
}

/// The slow oracle for [`generalized_pd_threshold_budgeted`]: the same
/// bracket policy with a fresh dense `O(n³)` Cholesky of `G − i·D` at every
/// probe, exactly as the paper describes the search. Tests compare the
/// Peltier-block search against it.
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
    validate_threshold_inputs(g, d, rel_tol, max_probes)?;
    bracket_pd_threshold(rel_tol, max_probes, |i| {
        let mut m = g.clone();
        m.add_scaled_diagonal(d, -i)?;
        Ok(Cholesky::factor(&m).is_ok())
    })
}

/// The preconditions both searches share, checked in the same order.
fn validate_threshold_inputs(
    g: &DenseMatrix,
    d: &[f64],
    rel_tol: f64,
    max_probes: usize,
) -> Result<(), LinalgError> {
    if d.len() != g.rows() {
        return Err(LinalgError::DimensionMismatch {
            expected: g.rows(),
            actual: d.len(),
        });
    }
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
    if !g.is_square() {
        return Err(LinalgError::NotSquare {
            rows: g.rows(),
            cols: g.cols(),
        });
    }
    Ok(())
}

/// The rows `rows` and columns `cols` of `g` as a dense matrix.
fn submatrix(g: &DenseMatrix, rows: &[usize], cols: &[usize]) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(rows.len(), cols.len());
    for (r, &gr) in rows.iter().enumerate() {
        for (c, &gc) in cols.iter().enumerate() {
            out[(r, c)] = g[(gr, gc)];
        }
    }
    out
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

/// Dominant eigenpair of a symmetric matrix by power iteration.
///
/// Returns `(eigenvalue, eigenvector)`. Convergence is declared when the
/// Rayleigh quotient changes by less than `tol` between sweeps.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] if `a` is not square.
/// - [`LinalgError::NoConvergence`] if `max_iter` sweeps do not converge.
pub fn power_iteration(
    a: &DenseMatrix,
    max_iter: usize,
    tol: f64,
) -> Result<(f64, Vec<f64>), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::InvalidInput("empty matrix".into()));
    }
    // Deterministic start vector with all components nonzero.
    let mut v: Vec<f64> = (0..n).map(|k| 1.0 + (k as f64) / (n as f64)).collect();
    normalize(&mut v);
    let mut lambda = 0.0_f64;
    for it in 0..max_iter {
        let mut w = a.mul_vec(&v)?;
        let nrm = normalize(&mut w);
        if nrm == 0.0 {
            // v was in the null space; eigenvalue 0 with that vector.
            return Ok((0.0, v));
        }
        let new_lambda = a.quadratic_form(&w)?;
        v = w;
        if it > 0 && (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0) {
            return Ok((new_lambda, v));
        }
        lambda = new_lambda;
    }
    Err(LinalgError::NoConvergence {
        iterations: max_iter,
        residual: f64::NAN,
    })
}

/// Smallest eigenvalue of a symmetric matrix, via power iteration on the
/// spectrally shifted matrix `s·I − A` with `s` an upper bound on the
/// spectral radius (Gershgorin).
///
/// # Errors
///
/// Propagates errors from [`power_iteration`].
pub fn min_eigenvalue_symmetric(
    a: &DenseMatrix,
    max_iter: usize,
    tol: f64,
) -> Result<f64, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    // Gershgorin bound on the spectral radius.
    let mut s = 0.0_f64;
    for r in 0..n {
        let mut radius = 0.0;
        for c in 0..n {
            if c != r {
                radius += a[(r, c)].abs();
            }
        }
        s = s.max(a[(r, r)].abs() + radius);
    }
    let mut shifted = DenseMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            shifted[(r, c)] = if r == c { s - a[(r, c)] } else { -a[(r, c)] };
        }
    }
    let (mu, _) = power_iteration(&shifted, max_iter, tol)?;
    Ok(s - mu)
}

fn normalize(v: &mut [f64]) -> f64 {
    let nrm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if nrm > 0.0 {
        for x in v.iter_mut() {
            *x /= nrm;
        }
    }
    nrm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pd_threshold_on_diagonal_case() {
        // G = diag(2, 4), D = diag(1, 1): threshold at i = 2.
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        let t = generalized_pd_threshold(&g, &[1.0, 1.0], 1e-10).unwrap();
        assert!((t.estimate() - 2.0).abs() < 1e-8);
        assert!(t.lower <= 2.0 && 2.0 <= t.upper);
    }

    #[test]
    fn pd_threshold_with_negative_d_entries() {
        // D with a negative entry only *helps* definiteness on that axis:
        // G = diag(2, 4), D = diag(1, -1): still limited by the first axis.
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        let t = generalized_pd_threshold(&g, &[1.0, -1.0], 1e-10).unwrap();
        assert!((t.estimate() - 2.0).abs() < 1e-8);
    }

    #[test]
    fn pd_threshold_coupled_case_matches_rayleigh() {
        // 2x2 case solvable by hand: G = [[3,-1],[-1,3]], D = diag(1,0).
        // lambda_m = min over x of xGx / x1^2. Parametrize x = (1, t):
        // f(t) = 3 - 2t + 3t^2 minimized at t = 1/3 -> f = 8/3.
        let g = DenseMatrix::from_rows(&[&[3.0, -1.0], &[-1.0, 3.0]]).unwrap();
        let t = generalized_pd_threshold(&g, &[1.0, 0.0], 1e-12).unwrap();
        assert!((t.estimate() - 8.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn pd_threshold_requires_positive_d_entry() {
        let g = DenseMatrix::identity(2);
        let err = generalized_pd_threshold(&g, &[0.0, -1.0], 1e-9).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
    }

    #[test]
    fn pd_threshold_rejects_indefinite_g() {
        let g = DenseMatrix::from_diagonal(&[-1.0, 1.0]);
        let err = generalized_pd_threshold(&g, &[1.0, 1.0], 1e-9).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn pd_threshold_validates_inputs() {
        let g = DenseMatrix::identity(2);
        assert!(generalized_pd_threshold(&g, &[1.0], 1e-9).is_err());
        assert!(generalized_pd_threshold(&g, &[1.0, 1.0], 0.0).is_err());
        assert!(generalized_pd_threshold(&g, &[1.0, 1.0], 1.5).is_err());
    }

    #[test]
    fn pd_threshold_budget_exhaustion_is_an_error_not_a_hang() {
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        // Three probes are not enough to even finish bracketing to i = 2.
        let err = generalized_pd_threshold_budgeted(&g, &[1.0, 1.0], 1e-12, 3).unwrap_err();
        assert_eq!(
            err,
            LinalgError::BudgetExhausted {
                spent: 3,
                budget: 3
            }
        );
        let err = generalized_pd_threshold_budgeted(&g, &[1.0, 1.0], 1e-12, 0).unwrap_err();
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
        let t = generalized_pd_threshold_budgeted(&g, &[1.0, 1.0], 1e-300, usize::MAX).unwrap();
        assert!(t.probes < 200, "spent {} probes", t.probes);
        assert!((t.estimate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn default_budget_covers_legitimate_searches() {
        let g = DenseMatrix::from_diagonal(&[2.0, 4.0]);
        let t = generalized_pd_threshold(&g, &[1.0, 1.0], 1e-15).unwrap();
        assert!(t.probes < DEFAULT_PROBE_BUDGET / 10);
    }

    #[test]
    fn dense_oracle_validates_like_the_schur_search() {
        let g = DenseMatrix::identity(2);
        for search in [
            generalized_pd_threshold_budgeted,
            generalized_pd_threshold_dense,
        ] {
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
    fn power_iteration_finds_dominant_pair() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let (lambda, v) = power_iteration(&a, 10_000, 1e-14).unwrap();
        assert!((lambda - 3.0).abs() < 1e-8);
        // Eigenvector is (1,1)/sqrt(2) up to sign.
        assert!((v[0].abs() - v[1].abs()).abs() < 1e-6);
    }

    #[test]
    fn min_eigenvalue_of_known_matrix() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let lam = min_eigenvalue_symmetric(&a, 10_000, 1e-14).unwrap();
        assert!((lam - 1.0).abs() < 1e-6);
    }

    #[test]
    fn min_eigenvalue_flags_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let lam = min_eigenvalue_symmetric(&a, 10_000, 1e-14).unwrap();
        assert!((lam + 1.0).abs() < 1e-6);
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
        let t = generalized_pd_threshold(&g, &d, 1e-11).unwrap();
        // At the threshold, G - lambda*D should be singular: its smallest
        // eigenvalue is ~0.
        let mut m = g.clone();
        m.add_scaled_diagonal(&d, -t.estimate()).unwrap();
        let lam_min = min_eigenvalue_symmetric(&m, 200_000, 1e-13).unwrap();
        assert!(
            lam_min.abs() < 1e-5 * m.max_abs(),
            "smallest eigenvalue at threshold is {lam_min}"
        );
    }
}
