//! Sherman–Morrison–Woodbury rank-k updates over a cached Cholesky factor.
//!
//! Every steady-state probe of the paper factors `A(i) = G − i·D`, yet `D`
//! is diagonal and supported on only the TEC junction nodes: changing the
//! supply current (or re-tuning it after a greedy placement) perturbs `A`
//! on a handful of diagonal entries. Writing the perturbation as
//! `A' = A + U·C·Uᵀ` — `U` a selection of `k` unit columns, `C` a small
//! diagonal of deltas — the Woodbury identity solves against `A'` through
//! the *existing* factor of `A`:
//!
//! ```text
//! A'⁻¹·b = z − W·M⁻¹·(Uᵀ·z),   z = A⁻¹·b,   W = A⁻¹·U,
//! M = C⁻¹ + Uᵀ·A⁻¹·U = C⁻¹ + S₀.
//! ```
//!
//! One base factorization plus a `k`-column solve (`W`, `S₀`) are paid up
//! front by [`UpdatableFactor::new`]; each subsequent perturbation costs an
//! `O(k³)` factorization of `M` plus `O(k·n)` correction work
//! ([`UpdatableFactor::apply`]) instead of a fresh sparse Cholesky.
//!
//! Positive definiteness of the perturbed matrix — the paper's runaway
//! verdict — comes for free from the same small factorization via the
//! Haynsworth inertia additivity identity: with `A` positive definite,
//!
//! ```text
//! In(A + U·C·Uᵀ) = In(A) + In(−M) − In(−C⁻¹),
//! ```
//!
//! so `A'` is positive definite **iff** `M` has exactly as many negative
//! pivots as `C⁻¹` (see DESIGN.md §15). [`SmallLdl`] factors `M` without
//! pivoting so the pivot signs carry that inertia; a pivot too small to
//! trust is reported as [`LinalgError::IllConditioned`], the caller's cue
//! to fall back to a fresh full factorization rather than accept a shaky
//! verdict.

use std::sync::Arc;

use crate::{CancelToken, Cholesky, DenseMatrix, LinalgError};

/// Relative pivot floor for [`SmallLdl`]: a pivot smaller than this times
/// the largest diagonal magnitude of the input is treated as a degraded
/// factorization ([`LinalgError::IllConditioned`]) rather than trusted for
/// solves or inertia verdicts.
pub const LDL_PIVOT_FLOOR: f64 = 1e-12;

/// A validated sparse diagonal perturbation `Δ = Σ_j δ_j·e_{n_j}·e_{n_j}ᵀ`.
///
/// Exact-zero deltas are dropped on construction (a zero column would make
/// `C` singular without perturbing anything), entries are kept sorted by
/// node, and duplicate nodes are rejected — so `rank()` is the true rank of
/// the perturbation.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalUpdate {
    entries: Vec<(usize, f64)>,
}

impl DiagonalUpdate {
    /// Builds an update from `(node, delta)` pairs.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NonFiniteEntry`] for a NaN or infinite delta.
    /// - [`LinalgError::InvalidInput`] for a duplicated node.
    pub fn new(
        entries: impl IntoIterator<Item = (usize, f64)>,
    ) -> Result<DiagonalUpdate, LinalgError> {
        let mut kept: Vec<(usize, f64)> = Vec::new();
        for (node, delta) in entries {
            if !delta.is_finite() {
                return Err(LinalgError::NonFiniteEntry {
                    row: node,
                    col: node,
                });
            }
            if delta != 0.0 {
                kept.push((node, delta));
            }
        }
        kept.sort_by_key(|&(node, _)| node);
        if kept.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(LinalgError::InvalidInput(
                "diagonal update repeats a node".into(),
            ));
        }
        Ok(DiagonalUpdate { entries: kept })
    }

    /// The `(node, delta)` pairs, sorted by node, zeros removed.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Rank of the perturbation (number of nonzero deltas).
    pub fn rank(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the perturbation is exactly zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Pivoting-free `L·D·Lᵀ` factorization of a small symmetric matrix.
///
/// This is the capacitance-equation kernel of the SMW update: the matrices
/// it sees are `k×k` with `k` twice the deployed TEC count, so the cubic
/// cost is negligible. No pivoting is used **on purpose** — the pivot signs
/// then equal the matrix's inertia (Sylvester), which is the positive-
/// definiteness certificate [`UpdatableFactor::apply`] relies on. The price
/// is that a (near-)zero pivot aborts the factorization; that surfaces as
/// [`LinalgError::IllConditioned`] and the caller refactors from scratch.
#[derive(Debug, Clone)]
pub struct SmallLdl {
    /// Unit-lower-triangular factor (diagonal implicitly 1).
    l: DenseMatrix,
    /// The (signed) pivots.
    d: Vec<f64>,
}

impl SmallLdl {
    /// Factors a symmetric matrix; only the lower triangle is read.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] for a non-square input.
    /// - [`LinalgError::IllConditioned`] when a pivot falls below
    ///   [`LDL_PIVOT_FLOOR`] relative to the largest diagonal magnitude —
    ///   the factorization (and its inertia) can no longer be trusted.
    pub fn factor(a: &DenseMatrix) -> Result<SmallLdl, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let scale = (0..n).map(|j| a[(j, j)].abs()).fold(1.0_f64, f64::max);
        let floor = LDL_PIVOT_FLOOR * scale;
        let mut l = DenseMatrix::identity(n);
        let mut d = vec![0.0; n];
        for j in 0..n {
            let mut pivot = a[(j, j)];
            for s in 0..j {
                pivot -= l[(j, s)] * l[(j, s)] * d[s];
            }
            if !pivot.is_finite() || pivot.abs() <= floor {
                let estimate = if pivot == 0.0 {
                    f64::INFINITY
                } else {
                    scale / pivot.abs()
                };
                return Err(LinalgError::IllConditioned { estimate });
            }
            d[j] = pivot;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for s in 0..j {
                    v -= l[(i, s)] * l[(j, s)] * d[s];
                }
                l[(i, j)] = v / pivot;
            }
        }
        Ok(SmallLdl { l, d })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Inertia of the factored matrix as `(positive, negative)` pivot
    /// counts. Zero pivots cannot occur (they abort the factorization).
    pub fn inertia(&self) -> (usize, usize) {
        let pos = self.d.iter().filter(|&&p| p > 0.0).count();
        (pos, self.d.len() - pos)
    }

    /// Pivot-ratio condition proxy `max|d| / min|d|` (1.0 for dimension 0).
    pub fn condition_estimate(&self) -> f64 {
        let mut max_p = 0.0_f64;
        let mut min_p = f64::INFINITY;
        for &p in &self.d {
            max_p = max_p.max(p.abs());
            min_p = min_p.min(p.abs());
        }
        if self.d.is_empty() {
            return 1.0;
        }
        max_p / min_p
    }

    /// Solves `A·x = b` through the factorization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        let mut y = b.to_vec();
        // L·z = b (unit diagonal).
        for i in 0..n {
            let row = self.l.row(i);
            let dot: f64 = row[..i].iter().zip(&y[..i]).map(|(a, b)| a * b).sum();
            y[i] -= dot;
        }
        // D·w = z.
        for (yi, di) in y.iter_mut().zip(&self.d) {
            *yi /= di;
        }
        // Lᵀ·x = w.
        for i in (0..n).rev() {
            let mut v = y[i];
            for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                v -= self.l[(k, i)] * yk;
            }
            y[i] = v;
        }
        Ok(y)
    }
}

/// Shared, immutable precomputation behind one updatable base factor.
#[derive(Debug)]
struct UpdatableInner {
    base: Cholesky,
    /// Sorted node set the factor can absorb deltas on.
    nodes: Vec<usize>,
    /// `W = A⁻¹·U`, one column (length `n`) per node.
    w: Vec<Vec<f64>>,
    /// `S₀ = Uᵀ·W`, the `k×k` Gram block of the capacitance equation.
    s0: DenseMatrix,
}

/// A sparse Cholesky factor of `A` prepared for repeated diagonal
/// perturbations on a fixed node set.
///
/// Construction pays `k` triangular solves (for `W = A⁻¹U`) once; every
/// [`UpdatableFactor::apply`] after that is `O(k³)`. Cloning is an `Arc`
/// bump — applied updates share the base factor instead of copying it.
#[derive(Debug, Clone)]
pub struct UpdatableFactor {
    inner: Arc<UpdatableInner>,
}

impl UpdatableFactor {
    /// Prepares `base` (the factor of `A`) for diagonal updates on `nodes`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::InvalidInput`] for an out-of-bounds or duplicated
    ///   node.
    pub fn new(base: Cholesky, nodes: &[usize]) -> Result<UpdatableFactor, LinalgError> {
        let n = base.dim();
        let mut nodes: Vec<usize> = nodes.to_vec();
        nodes.sort_unstable();
        if nodes.windows(2).any(|w| w[0] == w[1]) {
            return Err(LinalgError::InvalidInput(
                "update node set repeats a node".into(),
            ));
        }
        if nodes.last().is_some_and(|&k| k >= n) {
            return Err(LinalgError::InvalidInput(format!(
                "update node out of bounds for dimension {n}"
            )));
        }
        let unit_columns: Vec<Vec<f64>> = nodes
            .iter()
            .map(|&k| {
                let mut e = vec![0.0; n];
                e[k] = 1.0;
                e
            })
            .collect();
        let w = base.solve_many(&unit_columns)?;
        let k = nodes.len();
        let mut s0 = DenseMatrix::zeros(k, k);
        for (a, &node) in nodes.iter().enumerate() {
            for (b, col) in w.iter().enumerate() {
                s0[(a, b)] = col[node];
            }
        }
        Ok(UpdatableFactor {
            inner: Arc::new(UpdatableInner { base, nodes, w, s0 }),
        })
    }

    /// The base Cholesky factor of the unperturbed matrix.
    pub fn base(&self) -> &Cholesky {
        &self.inner.base
    }

    /// The sorted node set updates may touch.
    pub fn nodes(&self) -> &[usize] {
        &self.inner.nodes
    }

    /// Dimension of the underlying system.
    pub fn dim(&self) -> usize {
        self.inner.base.dim()
    }

    /// Positions (into [`UpdatableFactor::nodes`]) and deltas of `update`,
    /// plus the factored capacitance matrix `M = C⁻¹ + S₀` restricted to
    /// the active nodes.
    fn capacitance(
        &self,
        update: &DiagonalUpdate,
    ) -> Result<(Vec<usize>, Vec<f64>, SmallLdl), LinalgError> {
        let mut active = Vec::with_capacity(update.rank());
        let mut deltas = Vec::with_capacity(update.rank());
        for &(node, delta) in update.entries() {
            let Ok(pos) = self.inner.nodes.binary_search(&node) else {
                return Err(LinalgError::InvalidInput(format!(
                    "update touches node {node} outside the prepared node set"
                )));
            };
            active.push(pos);
            deltas.push(delta);
        }
        let k = active.len();
        let mut m = DenseMatrix::zeros(k, k);
        for (r, &ir) in active.iter().enumerate() {
            for (c, &ic) in active.iter().enumerate() {
                m[(r, c)] = self.inner.s0[(ir, ic)];
            }
            m[(r, r)] += 1.0 / deltas[r];
        }
        let ldl = SmallLdl::factor(&m)?;
        Ok((active, deltas, ldl))
    }

    /// Applies a diagonal perturbation, producing a factor-like handle on
    /// `A' = A + Δ`.
    ///
    /// The Haynsworth inertia certificate is checked here: if `A'` is not
    /// positive definite (the perturbed operating point is past thermal
    /// runaway) the update is rejected with the same
    /// [`LinalgError::NotPositiveDefinite`] signal a fresh Cholesky of `A'`
    /// would produce.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::InvalidInput`] if `update` touches a node outside
    ///   the prepared set.
    /// - [`LinalgError::NotPositiveDefinite`] if `A + Δ` is indefinite.
    /// - [`LinalgError::IllConditioned`] when the capacitance pivots are
    ///   too degraded to certify anything — refactor from scratch instead.
    pub fn apply(&self, update: &DiagonalUpdate) -> Result<AppliedUpdate, LinalgError> {
        if update.is_empty() {
            return Ok(AppliedUpdate {
                factor: self.clone(),
                active: Vec::new(),
                entries: Vec::new(),
                ldl: None,
            });
        }
        let (active, deltas, ldl) = self.capacitance(update)?;
        let expected_neg = deltas.iter().filter(|&&d| d < 0.0).count();
        if ldl.inertia().1 != expected_neg {
            let pivot = update.entries().first().map_or(0, |&(node, _)| node);
            return Err(LinalgError::NotPositiveDefinite { pivot });
        }
        let entries = active
            .iter()
            .zip(&deltas)
            .map(|(&pos, &delta)| (self.inner.nodes[pos], delta))
            .collect();
        Ok(AppliedUpdate {
            factor: self.clone(),
            active,
            entries,
            ldl: Some(ldl),
        })
    }
}

/// One applied diagonal perturbation: solves against `A + Δ` through the
/// shared base factor of `A`.
///
/// Cheap to clone (the `n×k` precomputation is shared through an `Arc`;
/// only the `k×k` capacitance factor is owned).
#[derive(Debug, Clone)]
pub struct AppliedUpdate {
    factor: UpdatableFactor,
    /// Positions into `factor.nodes()` the update touches.
    active: Vec<usize>,
    /// The `(node, delta)` pairs of the applied perturbation.
    entries: Vec<(usize, f64)>,
    /// Factored capacitance matrix; `None` for the empty perturbation.
    ldl: Option<SmallLdl>,
}

impl AppliedUpdate {
    /// The updatable factor this update was applied over.
    pub fn factor(&self) -> &UpdatableFactor {
        &self.factor
    }

    /// The `(node, delta)` pairs of the applied perturbation.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Rank of the applied perturbation.
    pub fn rank(&self) -> usize {
        self.entries.len()
    }

    /// Dimension of the underlying system.
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }

    /// Condition proxy for the *updated* matrix: the base pivot-ratio
    /// estimate times the capacitance pivot ratio. A heuristic upper
    /// indicator, not a bound — it diverges exactly when either factor
    /// approaches singularity, which is the "distance to runaway" reading
    /// the solver layer wants.
    pub fn condition_estimate(&self) -> f64 {
        let base = self.factor.base().condition_estimate();
        match &self.ldl {
            Some(ldl) => base * ldl.condition_estimate(),
            None => base,
        }
    }

    /// Applies the Woodbury correction `x ← x − Wₐ·M⁻¹·(Uₐᵀ·x)` in place.
    fn correct(&self, x: &mut [f64]) -> Result<(), LinalgError> {
        let Some(ldl) = &self.ldl else {
            return Ok(());
        };
        let inner = &self.factor.inner;
        let t: Vec<f64> = self.active.iter().map(|&pos| x[inner.nodes[pos]]).collect();
        let s = ldl.solve(&t)?;
        for (&pos, &coef) in self.active.iter().zip(&s) {
            if coef == 0.0 {
                continue;
            }
            for (xi, wi) in x.iter_mut().zip(&inner.w[pos]) {
                *xi -= coef * wi;
            }
        }
        Ok(())
    }

    /// Solves `(A + Δ)·x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = self.factor.base().solve(b)?;
        self.correct(&mut x)?;
        Ok(x)
    }

    /// [`AppliedUpdate::solve`] with a cooperative cancellation check
    /// before the (short, non-iterative) substitution sweeps.
    ///
    /// # Errors
    ///
    /// As [`AppliedUpdate::solve`], plus [`LinalgError::Cancelled`] once
    /// the token is raised.
    pub fn solve_with_cancel(
        &self,
        b: &[f64],
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<f64>, LinalgError> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(LinalgError::Cancelled { iterations: 0 });
        }
        self.solve(b)
    }

    /// Solves `(A + Δ)·X = B` for many right-hand sides: one blocked base
    /// solve followed by the per-column Woodbury corrections.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a wrong-length column.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let mut xs = self.factor.base().solve_many(rhs)?;
        for x in &mut xs {
            self.correct(x)?;
        }
        Ok(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};

    fn spd(dim: usize, seed: u64) -> DenseMatrix {
        random_stieltjes(
            StieltjesSampler {
                dim,
                density: 0.3,
                ..StieltjesSampler::default()
            },
            &mut seeded_rng(seed),
        )
    }

    fn perturbed(a: &DenseMatrix, update: &DiagonalUpdate) -> DenseMatrix {
        let mut m = a.clone();
        let mut diag = vec![0.0; a.rows()];
        for &(node, delta) in update.entries() {
            diag[node] = delta;
        }
        m.add_scaled_diagonal(&diag, 1.0).expect("dims match");
        m
    }

    #[test]
    fn diagonal_update_drops_zeros_sorts_and_rejects_duplicates() {
        let u = DiagonalUpdate::new([(5, 1.0), (2, 0.0), (1, -3.0)]).unwrap();
        assert_eq!(u.entries(), &[(1, -3.0), (5, 1.0)]);
        assert_eq!(u.rank(), 2);
        assert!(!u.is_empty());
        assert!(DiagonalUpdate::new([(1, 1.0), (1, 2.0)]).is_err());
        assert!(DiagonalUpdate::new([(0, f64::NAN)]).is_err());
        assert!(DiagonalUpdate::new([]).unwrap().is_empty());
    }

    #[test]
    fn small_ldl_matches_direct_solve_and_inertia() {
        let m = DenseMatrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, -2.0, 0.25], &[0.5, 0.25, 3.0]])
            .unwrap();
        let ldl = SmallLdl::factor(&m).unwrap();
        assert_eq!(ldl.inertia(), (2, 1));
        let b = [1.0, -1.0, 0.5];
        let x = ldl.solve(&b).unwrap();
        let r = m.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
        assert!(ldl.condition_estimate() >= 1.0);
    }

    #[test]
    fn small_ldl_reports_degenerate_pivot_as_ill_conditioned() {
        // Zero leading diagonal: the pivoting-free factorization cannot
        // proceed and must say so instead of producing garbage inertia.
        let m = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(matches!(
            SmallLdl::factor(&m),
            Err(LinalgError::IllConditioned { .. })
        ));
    }

    #[test]
    fn updated_solve_matches_fresh_factorization() {
        let a = spd(24, 3);
        let nodes = [2_usize, 7, 11, 19];
        let factor = UpdatableFactor::new(Cholesky::factor(&a).unwrap(), &nodes).unwrap();
        let update = DiagonalUpdate::new([(2, 0.8), (7, -0.15), (19, 0.3)]).unwrap();
        let applied = factor.apply(&update).unwrap();

        let fresh = Cholesky::factor(&perturbed(&a, &update)).unwrap();
        let b: Vec<f64> = (0..24).map(|k| (k as f64 * 0.7).cos()).collect();
        let x_upd = applied.solve(&b).unwrap();
        let x_new = fresh.solve(&b).unwrap();
        let scale = x_new.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (u, v) in x_upd.iter().zip(&x_new) {
            assert!((u - v).abs() <= 1e-10 * scale, "{u} vs {v}");
        }
    }

    #[test]
    fn solve_many_matches_columnwise_solve() {
        let a = spd(16, 5);
        let factor = UpdatableFactor::new(Cholesky::factor(&a).unwrap(), &[1, 8]).unwrap();
        let applied = factor
            .apply(&DiagonalUpdate::new([(1, -0.2), (8, 0.4)]).unwrap())
            .unwrap();
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|c| {
                (0..16)
                    .map(|k| ((k * (c + 2)) as f64 * 0.31).sin())
                    .collect()
            })
            .collect();
        let many = applied.solve_many(&rhs).unwrap();
        for (col, b) in many.iter().zip(&rhs) {
            let one = applied.solve(b).unwrap();
            for (u, v) in col.iter().zip(&one) {
                assert!((u - v).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn inertia_certificate_matches_cholesky_verdicts() {
        // G = diag-ish SPD; pushing one diagonal entry down far enough must
        // flip the PD verdict exactly where a fresh Cholesky flips it.
        let a = spd(12, 9);
        let nodes = [0_usize, 4, 9];
        let factor = UpdatableFactor::new(Cholesky::factor(&a).unwrap(), &nodes).unwrap();
        for magnitude in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let update = DiagonalUpdate::new([(4, -magnitude)]).unwrap();
            let oracle = Cholesky::is_positive_definite(&perturbed(&a, &update));
            match factor.apply(&update) {
                Ok(_) => assert!(oracle, "magnitude {magnitude}"),
                Err(LinalgError::NotPositiveDefinite { .. }) => {
                    assert!(!oracle, "magnitude {magnitude}");
                }
                Err(LinalgError::IllConditioned { .. }) => {
                    // A degraded pivot near the boundary is an allowed
                    // "refactor instead" answer, not a wrong verdict.
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn indefinite_update_is_rejected_like_fresh_cholesky() {
        let a = spd(10, 13);
        let factor = UpdatableFactor::new(Cholesky::factor(&a).unwrap(), &[3, 6]).unwrap();
        // A delta far below -a_33 makes the matrix indefinite.
        let update = DiagonalUpdate::new([(3, -1e6)]).unwrap();
        assert!(matches!(
            factor.apply(&update),
            Err(LinalgError::NotPositiveDefinite { pivot: 3 })
        ));
    }

    #[test]
    fn empty_update_is_the_base_factor() {
        let a = spd(8, 17);
        let chol = Cholesky::factor(&a).unwrap();
        let base_cond = chol.condition_estimate();
        let factor = UpdatableFactor::new(chol, &[2]).unwrap();
        let applied = factor.apply(&DiagonalUpdate::new([]).unwrap()).unwrap();
        let b = vec![1.0; 8];
        let x = applied.solve(&b).unwrap();
        let y = factor.base().solve(&b).unwrap();
        assert_eq!(x, y);
        assert_eq!(applied.condition_estimate(), base_cond);
        assert_eq!(applied.rank(), 0);
    }

    #[test]
    fn update_outside_prepared_nodes_is_rejected() {
        let a = spd(6, 21);
        let factor = UpdatableFactor::new(Cholesky::factor(&a).unwrap(), &[1, 3]).unwrap();
        let update = DiagonalUpdate::new([(2, 1.0)]).unwrap();
        assert!(matches!(
            factor.apply(&update),
            Err(LinalgError::InvalidInput(_))
        ));
    }

    #[test]
    fn constructor_validates_nodes() {
        let a = spd(5, 2);
        let chol = Cholesky::factor(&a).unwrap();
        assert!(UpdatableFactor::new(chol.clone(), &[0, 0]).is_err());
        assert!(UpdatableFactor::new(chol.clone(), &[5]).is_err());
        assert!(UpdatableFactor::new(chol, &[4, 0]).is_ok());
    }

    #[test]
    fn cancellation_is_honored() {
        let a = spd(6, 30);
        let factor = UpdatableFactor::new(Cholesky::factor(&a).unwrap(), &[2]).unwrap();
        let applied = factor
            .apply(&DiagonalUpdate::new([(2, 0.5)]).unwrap())
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(
            applied.solve_with_cancel(&[1.0; 6], Some(&token)),
            Err(LinalgError::Cancelled { .. })
        ));
        assert!(applied.solve_with_cancel(&[1.0; 6], None).is_ok());
    }
}
