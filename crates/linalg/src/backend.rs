//! Solver-backend selection: one interface over the sparse Cholesky, its
//! dense oracle, and CG.
//!
//! Every steady-state evaluation in the paper is a solve of
//! `(G − i·D)·θ = p(i)` where `G − i·D` is symmetric positive definite below
//! the runaway limit. The compact models are *sparse* structured grids (a
//! 12×12-tile package has n = 536 nodes at 1.2 % density, a 32×32 one
//! n ≈ 2300 at 0.3 %), so this module routes each solve to:
//!
//! - [`SolverBackend::Auto`] — the sparse [`Cholesky`] under a
//!   minimum-degree ordering, at every size. It is exact, certifies
//!   definiteness, serves many right-hand sides, and is the base of the
//!   rank-k update path.
//! - [`SolverBackend::DenseCholesky`] — the paper's dense `O(n³)` kernel
//!   ([`DenseCholesky`]), kept as the slow oracle the sparse factor is
//!   tested against.
//! - [`SolverBackend::SparseCg`] — Jacobi-preconditioned conjugate gradients
//!   on a CSR copy; `O(nnz · iters)` per solve and no factorization, but no
//!   definiteness certificate either. No production path selects it: its
//!   callers are the cross-backend equivalence tests, the `solver`
//!   criterion bench and perfbench's `linalg.cg_*` metrics. The fine-grid
//!   reference solver (`tecopt_thermal::refined`) calls the
//!   [`conjugate_gradient`](crate::conjugate_gradient) kernel directly.

use crate::{
    conjugate_gradient_cancellable, AppliedUpdate, CancelToken, CgSettings, Cholesky, CsrMatrix,
    DenseCholesky, DenseMatrix, DiagonalUpdate, LinalgError, ShiftedFactor, UpdatableFactor,
};

/// Which linear-solver backend a [`CoolingSystem`](../../tecopt) probe uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverBackend {
    /// The sparse Cholesky factorization (see module docs).
    #[default]
    Auto,
    /// Always factor with the dense `O(n³)` oracle kernel.
    DenseCholesky,
    /// Always solve with Jacobi-preconditioned CG on a CSR copy.
    SparseCg(CgSettings),
}

/// The concrete backend [`SolverBackend::resolve`] chose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolvedBackend {
    /// Sparse Cholesky factorization.
    Cholesky,
    /// Dense Cholesky factorization (the oracle).
    DenseCholesky,
    /// Sparse CG with these settings.
    SparseCg(CgSettings),
}

impl SolverBackend {
    /// Resolves `Auto` to the sparse Cholesky; explicit choices stay.
    pub fn resolve(self) -> ResolvedBackend {
        match self {
            SolverBackend::Auto => ResolvedBackend::Cholesky,
            SolverBackend::DenseCholesky => ResolvedBackend::DenseCholesky,
            SolverBackend::SparseCg(s) => ResolvedBackend::SparseCg(s),
        }
    }
}

/// Which kind of solve produced a solution: see [`FactoredSystem::method`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Triangular solves through a Cholesky factor (sparse, dense, SMW-updated
    /// or placement-factor).
    Cholesky,
    /// Jacobi-preconditioned conjugate gradients on a CSR copy.
    SparseCg,
}

/// Pivot-ratio condition estimate above which a solved state is flagged
/// degraded: rounding can then cost twelve or more of its temperatures'
/// sixteen significant digits. The estimate is a lower bound on `κ₂`, so
/// a state below it is not proven sound.
pub const WARN_CONDITION: f64 = 1e12;

/// A system "factored" for repeated right-hand sides under one backend.
///
/// The two Cholesky backends hold a genuine `L·Lᵀ` factor; the CG backend
/// holds the CSR copy (CG needs no factorization, so "factoring" is just the
/// format conversion plus a diagonal-positivity screen).
#[derive(Debug, Clone)]
pub enum FactoredSystem {
    /// Sparse Cholesky factor.
    Cholesky(Cholesky),
    /// Dense Cholesky factor (the oracle backend).
    Dense(DenseCholesky),
    /// CSR copy plus the CG settings to solve with.
    Sparse {
        /// The system matrix in CSR form.
        matrix: CsrMatrix,
        /// CG iteration controls.
        settings: CgSettings,
    },
    /// A sparse Cholesky factor carrying a Sherman–Morrison–Woodbury rank-k
    /// diagonal correction (see [`crate::UpdatableFactor`]): solves go
    /// through the *base* factor plus an `O(k·n)` correction instead of a
    /// fresh factorization.
    Updated(AppliedUpdate),
    /// One current of a placement's [`crate::ShiftedCholesky`]: the
    /// trailing `k×k` block over a `G_AA` factored once, or the network's
    /// sparse factor.
    Shifted(ShiftedFactor),
}

/// One backend solve with its diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSolve {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Condition estimate: the Cholesky pivot ratio (both direct backends;
    /// a lower bound on `κ₂` whose value depends on the elimination order)
    /// or the CG-iteration-count heuristic `κ ≈ (2·iters / ln(2/tol))²`.
    pub condition_estimate: f64,
    /// CG iterations spent (0 for the direct backends).
    pub iterations: usize,
}

impl FactoredSystem {
    /// Prepares `a` for solves under the resolved backend.
    ///
    /// The CG path screens the diagonal: a symmetric matrix with a
    /// nonpositive diagonal entry `a_kk = e_kᵀ·A·e_k ≤ 0` cannot be positive
    /// definite, so it is rejected with the same
    /// [`LinalgError::NotPositiveDefinite`] signal Cholesky gives — keeping
    /// runaway detection uniform across backends.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] for a non-square input.
    /// - [`LinalgError::NotPositiveDefinite`] from a Cholesky factorization
    ///   or the CG diagonal screen.
    pub fn factor(
        a: &DenseMatrix,
        backend: ResolvedBackend,
    ) -> Result<FactoredSystem, LinalgError> {
        match backend {
            ResolvedBackend::Cholesky => Ok(FactoredSystem::Cholesky(Cholesky::factor(a)?)),
            ResolvedBackend::DenseCholesky => Ok(FactoredSystem::Dense(DenseCholesky::factor(a)?)),
            ResolvedBackend::SparseCg(settings) => {
                if !a.is_square() {
                    return Err(LinalgError::NotSquare {
                        rows: a.rows(),
                        cols: a.cols(),
                    });
                }
                for k in 0..a.rows() {
                    let d = a[(k, k)];
                    if d <= 0.0 || !d.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: k });
                    }
                }
                Ok(FactoredSystem::Sparse {
                    matrix: CsrMatrix::from_dense(a),
                    settings,
                })
            }
        }
    }

    /// Resolves `backend` (see [`SolverBackend::resolve`]), then factors.
    ///
    /// # Errors
    ///
    /// Same contract as [`FactoredSystem::factor`].
    pub fn factor_auto(
        a: &DenseMatrix,
        backend: SolverBackend,
    ) -> Result<FactoredSystem, LinalgError> {
        FactoredSystem::factor(a, backend.resolve())
    }

    /// Which [`SolveMethod`] solves through this factored system report.
    ///
    /// The updated variant still solves through triangular substitutions of
    /// the base Cholesky factor, so it reports [`SolveMethod::Cholesky`].
    pub fn method(&self) -> SolveMethod {
        match self {
            FactoredSystem::Cholesky(_)
            | FactoredSystem::Dense(_)
            | FactoredSystem::Updated(_)
            | FactoredSystem::Shifted(_) => SolveMethod::Cholesky,
            FactoredSystem::Sparse { .. } => SolveMethod::SparseCg,
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        match self {
            FactoredSystem::Cholesky(chol) => chol.dim(),
            FactoredSystem::Dense(chol) => chol.dim(),
            FactoredSystem::Sparse { matrix, .. } => matrix.rows(),
            FactoredSystem::Updated(applied) => applied.dim(),
            FactoredSystem::Shifted(f) => f.dim(),
        }
    }

    /// Re-keys this factored system to the diagonally perturbed matrix
    /// `A + Δ` without a full refactorization.
    ///
    /// - **Cholesky**: builds an [`UpdatableFactor`] over the perturbed
    ///   nodes and applies the Sherman–Morrison–Woodbury correction (`O(k)`
    ///   triangular solves once, then `O(k³)`). Callers updating the same
    ///   node set repeatedly should hold an [`UpdatableFactor`] themselves
    ///   and pay the setup once; this entry point is the uniform-interface
    ///   form.
    /// - **Dense**: not supported — the dense oracle always refactors.
    /// - **Sparse** (CG): patches the CSR diagonal in place via
    ///   [`CsrMatrix::set_diagonal_entry`] (inserting structurally missing
    ///   diagonals) and re-screens positivity, exactly like
    ///   [`FactoredSystem::factor`] does.
    /// - **Updated**: merges the new deltas into the existing correction
    ///   over the shared base factor (same node-set restriction as
    ///   [`UpdatableFactor::apply`]).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotPositiveDefinite`] if the perturbed matrix is no
    ///   longer positive definite (past thermal runaway).
    /// - [`LinalgError::IllConditioned`] when the update's small pivots are
    ///   too degraded to trust — fall back to a fresh factorization.
    /// - [`LinalgError::InvalidInput`] for out-of-bounds nodes, (on the
    ///   updated variant) nodes outside the prepared set, or the dense
    ///   oracle backend.
    pub fn update_rank_k(&self, update: &DiagonalUpdate) -> Result<FactoredSystem, LinalgError> {
        match self {
            FactoredSystem::Cholesky(chol) => {
                let nodes: Vec<usize> = update.entries().iter().map(|&(k, _)| k).collect();
                let factor = UpdatableFactor::new(chol.clone(), &nodes)?;
                Ok(FactoredSystem::Updated(factor.apply(update)?))
            }
            FactoredSystem::Dense(_) => Err(LinalgError::InvalidInput(
                "the dense oracle backend takes no rank-k updates; refactor instead".into(),
            )),
            FactoredSystem::Shifted(_) => Err(LinalgError::InvalidInput(
                "a placement factor takes no rank-k updates; factor it at the new current".into(),
            )),
            FactoredSystem::Sparse { matrix, settings } => {
                let mut patched = matrix.clone();
                for &(k, delta) in update.entries() {
                    if k >= patched.rows() || k >= patched.cols() {
                        return Err(LinalgError::InvalidInput(format!(
                            "update node {k} out of bounds for {}x{}",
                            patched.rows(),
                            patched.cols()
                        )));
                    }
                    let value = patched.get(k, k) + delta;
                    if value <= 0.0 || !value.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: k });
                    }
                    patched.set_diagonal_entry(k, value)?;
                }
                Ok(FactoredSystem::Sparse {
                    matrix: patched,
                    settings: *settings,
                })
            }
            FactoredSystem::Updated(applied) => {
                let mut merged: Vec<(usize, f64)> = applied.entries().to_vec();
                for &(node, delta) in update.entries() {
                    match merged.binary_search_by_key(&node, |&(n, _)| n) {
                        Ok(pos) => merged[pos].1 += delta,
                        Err(pos) => merged.insert(pos, (node, delta)),
                    }
                }
                let combined = DiagonalUpdate::new(merged)?;
                Ok(FactoredSystem::Updated(applied.factor().apply(&combined)?))
            }
        }
    }

    /// Solves `A·X = B` for a block of right-hand sides.
    ///
    /// The Cholesky and updated backends use the blocked triangular sweeps
    /// of [`Cholesky::solve_many`] (one pass over the factor for the whole
    /// block); the CG backend runs CG per column against the shared CSR
    /// matrix. Diagnostics are per column, exactly as
    /// [`FactoredSystem::solve`] would report them.
    ///
    /// # Errors
    ///
    /// Same contract as [`FactoredSystem::solve`], applied per column.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<BackendSolve>, LinalgError> {
        let block = |xs: Vec<Vec<f64>>, condition_estimate: f64| {
            xs.into_iter()
                .map(|x| BackendSolve {
                    x,
                    condition_estimate,
                    iterations: 0,
                })
                .collect()
        };
        match self {
            FactoredSystem::Cholesky(chol) => {
                Ok(block(chol.solve_many(rhs)?, chol.condition_estimate()))
            }
            FactoredSystem::Dense(chol) => {
                Ok(block(chol.solve_many(rhs)?, chol.condition_estimate()))
            }
            FactoredSystem::Updated(applied) => Ok(block(
                applied.solve_many(rhs)?,
                applied.condition_estimate(),
            )),
            FactoredSystem::Shifted(f) => Ok(block(f.solve_many(rhs)?, f.condition_estimate())),
            FactoredSystem::Sparse { .. } => rhs.iter().map(|b| self.solve(b)).collect(),
        }
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] for a wrong-length `b`.
    /// - [`LinalgError::NotPositiveDefinite`] if CG encounters nonpositive
    ///   curvature (the matrix is indefinite — past runaway).
    /// - [`LinalgError::NoConvergence`] if CG stalls within its iteration
    ///   budget (callers may fall back to a Cholesky factorization).
    pub fn solve(&self, b: &[f64]) -> Result<BackendSolve, LinalgError> {
        self.solve_with_cancel(b, None)
    }

    /// [`FactoredSystem::solve`] with a cooperative cancellation token.
    ///
    /// The direct backends check the token once before their (short,
    /// non-iterative) triangular solves; the CG backend polls at every
    /// iteration boundary. With `cancel: None` the result is
    /// bit-identical to [`FactoredSystem::solve`].
    ///
    /// # Errors
    ///
    /// Same contract as [`FactoredSystem::solve`], plus
    /// [`LinalgError::Cancelled`] once the token is raised.
    pub fn solve_with_cancel(
        &self,
        b: &[f64],
        cancel: Option<&CancelToken>,
    ) -> Result<BackendSolve, LinalgError> {
        let direct = |x: Vec<f64>, condition_estimate: f64| BackendSolve {
            x,
            condition_estimate,
            iterations: 0,
        };
        if !matches!(self, FactoredSystem::Sparse { .. })
            && cancel.is_some_and(CancelToken::is_cancelled)
        {
            return Err(LinalgError::Cancelled { iterations: 0 });
        }
        match self {
            FactoredSystem::Cholesky(chol) => Ok(direct(chol.solve(b)?, chol.condition_estimate())),
            FactoredSystem::Dense(chol) => Ok(direct(chol.solve(b)?, chol.condition_estimate())),
            FactoredSystem::Shifted(f) => Ok(direct(f.solve(b)?, f.condition_estimate())),
            FactoredSystem::Sparse { matrix, settings } => {
                let out = conjugate_gradient_cancellable(matrix, b, *settings, cancel)?;
                Ok(BackendSolve {
                    condition_estimate: cg_condition_estimate(out.iterations, settings.tolerance),
                    iterations: out.iterations,
                    x: out.x,
                })
            }
            FactoredSystem::Updated(applied) => {
                Ok(direct(applied.solve(b)?, applied.condition_estimate()))
            }
        }
    }
}

/// Inverts the classical CG iteration bound `iters ≈ ½·√κ·ln(2/ε)` into a
/// cheap condition-number *proxy*. It is a heuristic — preconditioning and
/// eigenvalue clustering make CG converge faster than the bound — but it
/// grows with the true `κ` and therefore preserves the "distance to
/// runaway" reading of the Cholesky pivot-ratio estimate.
fn cg_condition_estimate(iterations: usize, tolerance: f64) -> f64 {
    let log_term = (2.0 / tolerance.max(f64::MIN_POSITIVE)).ln().max(1.0);
    let sqrt_kappa = 2.0 * iterations as f64 / log_term;
    (sqrt_kappa * sqrt_kappa).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};

    fn spd(dim: usize, density: f64, seed: u64) -> DenseMatrix {
        random_stieltjes(
            StieltjesSampler {
                dim,
                density,
                ..StieltjesSampler::default()
            },
            &mut seeded_rng(seed),
        )
    }

    #[test]
    fn auto_resolves_to_the_sparse_cholesky() {
        assert_eq!(SolverBackend::Auto.resolve(), ResolvedBackend::Cholesky);
        assert_eq!(
            SolverBackend::default().resolve(),
            ResolvedBackend::Cholesky
        );
        assert_eq!(
            SolverBackend::DenseCholesky.resolve(),
            ResolvedBackend::DenseCholesky
        );
        assert!(matches!(
            SolverBackend::SparseCg(CgSettings::default()).resolve(),
            ResolvedBackend::SparseCg(_)
        ));
    }

    #[test]
    fn backends_agree_on_random_stieltjes() {
        for (seed, dim) in [(7_u64, 40_usize), (8, 80), (9, 120)] {
            let a = spd(dim, 0.08, seed);
            let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.37).sin() + 1.5).collect();
            let dense = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky)
                .expect("SPD")
                .solve(&b)
                .expect("solves");
            let sparse =
                FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
                    .expect("positive diagonal")
                    .solve(&b)
                    .expect("CG converges");
            let chol = FactoredSystem::factor(&a, ResolvedBackend::Cholesky)
                .expect("SPD")
                .solve(&b)
                .expect("solves");
            assert!(rel_err(&dense.x, &chol.x) <= 1e-12, "dim {dim}");
            let num: f64 = dense
                .x
                .iter()
                .zip(&sparse.x)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let den: f64 = dense.x.iter().map(|u| u * u).sum::<f64>().sqrt();
            assert!(num <= 1e-8 * den, "dim {dim}: rel err {}", num / den);
            assert!(sparse.iterations > 0);
            assert_eq!(dense.iterations, 0);
        }
    }

    #[test]
    fn sparse_screen_rejects_nonpositive_diagonal() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -2.0]]).expect("square");
        let err = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect_err("indefinite");
        assert_eq!(err, LinalgError::NotPositiveDefinite { pivot: 1 });
    }

    #[test]
    fn sparse_detects_indefiniteness_during_solve() {
        // Positive diagonal but indefinite: the screen passes, CG reports
        // nonpositive curvature.
        let a = DenseMatrix::from_rows(&[&[1.0, 3.0], &[3.0, 1.0]]).expect("square");
        let f = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect("diagonal is positive");
        let err = f.solve(&[1.0, -1.0]).expect_err("indefinite");
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn method_and_dim_reported() {
        let a = spd(12, 0.3, 3);
        let d = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky).expect("SPD");
        let s = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect("positive diagonal");
        let c = FactoredSystem::factor(&a, ResolvedBackend::Cholesky).expect("SPD");
        assert_eq!(c.method(), SolveMethod::Cholesky);
        assert_eq!(c.dim(), 12);
        assert_eq!(d.method(), SolveMethod::Cholesky);
        assert_eq!(s.method(), SolveMethod::SparseCg);
        assert_eq!(d.dim(), 12);
        assert_eq!(s.dim(), 12);
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let den: f64 = a.iter().map(|u| u * u).sum::<f64>().sqrt().max(1e-30);
        num / den
    }

    #[test]
    fn rank_k_update_matches_fresh_factor_on_all_backends() {
        let dim = 48;
        let a = spd(dim, 0.1, 17);
        let update = DiagonalUpdate::new([(3, 0.6), (20, -0.05), (41, 1.2)]).expect("finite");
        let mut perturbed = a.clone();
        let mut diag = vec![0.0; dim];
        for &(k, v) in update.entries() {
            diag[k] = v;
        }
        perturbed
            .add_scaled_diagonal(&diag, 1.0)
            .expect("dims match");
        let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.23).cos() + 1.0).collect();
        let oracle = FactoredSystem::factor(&perturbed, ResolvedBackend::DenseCholesky)
            .expect("SPD")
            .solve(&b)
            .expect("solves");

        for backend in [
            ResolvedBackend::Cholesky,
            ResolvedBackend::SparseCg(CgSettings::default()),
        ] {
            let base = FactoredSystem::factor(&a, backend).expect("SPD");
            let updated = base.update_rank_k(&update).expect("updatable");
            let got = updated.solve(&b).expect("solves");
            assert!(
                rel_err(&oracle.x, &got.x) < 1e-8,
                "{backend:?}: rel err {}",
                rel_err(&oracle.x, &got.x)
            );
            assert_eq!(updated.dim(), dim);
        }
        let dense = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky).expect("SPD");
        assert!(matches!(
            dense.update_rank_k(&update),
            Err(LinalgError::InvalidInput(_))
        ));
    }

    #[test]
    fn stacked_updates_compose_on_the_updated_variant() {
        let dim = 24;
        let a = spd(dim, 0.2, 23);
        let first = DiagonalUpdate::new([(2, 0.5), (11, -0.1)]).expect("finite");
        let second = DiagonalUpdate::new([(2, -0.2), (11, 0.3)]).expect("finite");
        let base = FactoredSystem::factor(&a, ResolvedBackend::Cholesky).expect("SPD");
        let once = base.update_rank_k(&first).expect("updatable");
        let twice = once.update_rank_k(&second).expect("stacks");

        let mut perturbed = a.clone();
        let mut diag = vec![0.0; dim];
        diag[2] = 0.3;
        diag[11] = 0.2;
        perturbed
            .add_scaled_diagonal(&diag, 1.0)
            .expect("dims match");
        let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.7).sin()).collect();
        let oracle = DenseCholesky::factor(&perturbed)
            .expect("SPD")
            .solve(&b)
            .expect("solves");
        let got = twice.solve(&b).expect("solves");
        assert!(rel_err(&oracle, &got.x) < 1e-10);
        assert_eq!(twice.method(), SolveMethod::Cholesky);
    }

    #[test]
    fn indefinite_update_is_rejected_uniformly() {
        let a = spd(20, 0.2, 31);
        let update = DiagonalUpdate::new([(7, -1e9)]).expect("finite");
        for backend in [
            ResolvedBackend::Cholesky,
            ResolvedBackend::SparseCg(CgSettings::default()),
        ] {
            let base = FactoredSystem::factor(&a, backend).expect("SPD");
            assert!(
                matches!(
                    base.update_rank_k(&update),
                    Err(LinalgError::NotPositiveDefinite { .. })
                ),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn solve_many_matches_per_rhs_solve_on_all_variants() {
        let dim = 40;
        let a = spd(dim, 0.1, 41);
        let update = DiagonalUpdate::new([(5, 0.4)]).expect("finite");
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                (0..dim)
                    .map(|k| ((k + 3 * c) as f64 * 0.37).sin() + 1.5)
                    .collect()
            })
            .collect();
        let dense = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky).expect("SPD");
        let sparse = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect("positive diagonal");
        let chol = FactoredSystem::factor(&a, ResolvedBackend::Cholesky).expect("SPD");
        let updated = chol.update_rank_k(&update).expect("updatable");
        for f in [&dense, &chol, &sparse, &updated] {
            let block = f.solve_many(&rhs).expect("solves");
            assert_eq!(block.len(), rhs.len());
            for (col, b) in block.iter().zip(&rhs) {
                let one = f.solve(b).expect("solves");
                assert!(rel_err(&one.x, &col.x) < 1e-10);
            }
        }
        assert!(dense.solve_many(&[]).expect("empty").is_empty());
    }

    #[test]
    fn condition_heuristic_is_monotone_and_bounded_below() {
        let c1 = cg_condition_estimate(0, 1e-10);
        let c2 = cg_condition_estimate(50, 1e-10);
        let c3 = cg_condition_estimate(500, 1e-10);
        assert_eq!(c1, 1.0);
        assert!(c2 > c1 && c3 > c2);
    }
}
