use crate::{DenseMatrix, LinalgError};

/// Dense `A = L·Lᵀ` factorization in natural order, `O(n³)` time and
/// `O(n²)` storage — the paper's own kernel (Sec. V.C.1: "Cholesky
/// decomposition (O(n³) time complexity) is employed to check whether a
/// matrix is positive definite").
///
/// This is the **slow oracle** of the workspace: production solves go
/// through the sparse [`Cholesky`](crate::Cholesky). The dense kernel is
/// reached only by the explicit
/// [`SolverBackend::DenseCholesky`](crate::SolverBackend::DenseCholesky),
/// by [`generalized_pd_threshold_dense`](crate::eigen::generalized_pd_threshold_dense),
/// and by tests that check the sparse factor against it.
///
/// ```
/// use tecopt_linalg::{DenseCholesky, DenseMatrix};
///
/// # fn main() -> Result<(), tecopt_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[25.0, 15.0, -5.0],
///                                  &[15.0, 18.0,  0.0],
///                                  &[-5.0,  0.0, 11.0]])?;
/// let chol = DenseCholesky::factor(&a)?;
/// let x = chol.solve(&[1.0, 2.0, 3.0])?;
/// let r = a.mul_vec(&x)?;
/// assert!((r[0] - 1.0).abs() < 1e-10 && (r[2] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseCholesky {
    /// Lower-triangular factor, stored densely (upper part zero).
    l: DenseMatrix,
}

impl DenseCholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (the compact-model assembly guarantees it, and
    /// [`DenseMatrix::is_symmetric`] is available for validation).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive — the signal used to detect thermal runaway (`i ≥ λ_m`).
    pub fn factor(a: &DenseMatrix) -> Result<DenseCholesky, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(DenseCholesky { l })
    }

    /// Returns `true` iff `a` (symmetric) is positive definite.
    ///
    /// Convenience wrapper over [`DenseCholesky::factor`] that discards the factor.
    pub fn is_positive_definite(a: &DenseMatrix) -> bool {
        DenseCholesky::factor(a).is_ok()
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor `L`.
    #[inline]
    pub fn l(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        // Forward substitution: L·y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let dot: f64 = row[..i].iter().zip(&y[..i]).map(|(a, b)| a * b).sum();
            y[i] = (y[i] - dot) / row[i];
        }
        // Back substitution: Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut v = y[i];
            for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                v -= self.l[(k, i)] * yk;
            }
            y[i] = v / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `A·X = B` for many right-hand sides in one blocked pass.
    ///
    /// Mathematically identical to calling [`DenseCholesky::solve`] per column,
    /// but each substitution sweep walks the factor `L` **once** for all
    /// columns together (an axpy across the block per `L` entry), so the
    /// `O(n²)` factor traffic is amortized over the whole block instead of
    /// being re-streamed per right-hand side.
    ///
    /// Summation order differs from the scalar path, so results may differ
    /// from [`DenseCholesky::solve`] in the last bits (never beyond normal
    /// rounding).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any column's length is
    /// not `n`.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let n = self.dim();
        let m = rhs.len();
        if m == 0 {
            return Ok(Vec::new());
        }
        for b in rhs {
            if b.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    actual: b.len(),
                });
            }
        }
        // Row-major n×m block: y[i·m + j] is row i of column j.
        let mut y = vec![0.0; n * m];
        for (j, b) in rhs.iter().enumerate() {
            for (i, &v) in b.iter().enumerate() {
                y[i * m + j] = v;
            }
        }
        // Forward substitution L·Y = B, blocked across columns.
        for i in 0..n {
            let row = self.l.row(i);
            let (head, tail) = y.split_at_mut(i * m);
            let yi = &mut tail[..m];
            for (k, &lik) in row[..i].iter().enumerate() {
                if lik == 0.0 {
                    continue;
                }
                let yk = &head[k * m..(k + 1) * m];
                for (a, &b) in yi.iter_mut().zip(yk) {
                    *a -= lik * b;
                }
            }
            for a in yi.iter_mut() {
                *a /= row[i];
            }
        }
        // Back substitution Lᵀ·X = Y, blocked across columns.
        for i in (0..n).rev() {
            let (head, tail) = y.split_at_mut((i + 1) * m);
            let yi = &mut head[i * m..];
            for (off, yk) in tail.chunks_exact(m).enumerate() {
                let lki = self.l[(i + 1 + off, i)];
                if lki == 0.0 {
                    continue;
                }
                for (a, &b) in yi.iter_mut().zip(yk) {
                    *a -= lki * b;
                }
            }
            for a in yi.iter_mut() {
                *a /= self.l[(i, i)];
            }
        }
        Ok((0..m)
            .map(|j| (0..n).map(|i| y[i * m + j]).collect())
            .collect())
    }

    /// Pivot-ratio estimate `(max_k L_kk / min_k L_kk)²` of `κ₂(A)`, a
    /// lower bound (see [`Cholesky::condition_estimate`](crate::Cholesky::condition_estimate)).
    ///
    /// Returns `+∞` if a pivot underflowed to zero (numerically singular).
    pub fn condition_estimate(&self) -> f64 {
        let mut max_p = f64::NEG_INFINITY;
        let mut min_p = f64::INFINITY;
        for k in 0..self.dim() {
            let p = self.l[(k, k)];
            max_p = max_p.max(p);
            min_p = min_p.min(p);
        }
        if self.dim() == 0 {
            return 1.0;
        }
        if min_p <= 0.0 {
            return f64::INFINITY;
        }
        let r = max_p / min_p;
        r * r
    }

    /// Natural logarithm of `det(A) = Π L_kk²`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|k| 2.0 * self.l[(k, k)].ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap()
    }

    #[test]
    fn factor_known_matrix() {
        // Classic example: L = [[5,0,0],[3,3,0],[-1,1,3]].
        let chol = DenseCholesky::factor(&spd3()).unwrap();
        let l = chol.l();
        assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 3.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 3.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 1.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
        assert!((chol.log_det() - 2025.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_l_lt() {
        let a = spd3();
        let chol = DenseCholesky::factor(&a).unwrap();
        let rec = chol.l().mul_mat(&chol.l().transpose()).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert!((rec[(r, c)] - a[(r, c)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_many_matches_per_column_solve() {
        let chol = DenseCholesky::factor(&spd3()).unwrap();
        let rhs = vec![vec![1.0, 0.0, 1.0], vec![-2.0, 0.5, 3.0]];
        let many = chol.solve_many(&rhs).unwrap();
        for (col, b) in many.iter().zip(&rhs) {
            let one = chol.solve(b).unwrap();
            for (u, v) in col.iter().zip(&one) {
                assert!((u - v).abs() < 1e-12, "{u} vs {v}");
            }
        }
        assert!(chol.solve_many(&[vec![1.0; 2]]).is_err());
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(
            DenseCholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 1 }
        );
        assert!(!DenseCholesky::is_positive_definite(&a));
        assert!(matches!(
            DenseCholesky::factor(&DenseMatrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }
}
