use crate::{DenseMatrix, LinalgError};

/// LU factorization with partial pivoting, `P·A = L·U`.
///
/// Used where symmetry or definiteness cannot be assumed: determinants of the
/// minors `A_kl` in Lemma 2 of the paper, and as an independent check of
/// Cholesky solves in the tests.
///
/// ```
/// use tecopt_linalg::{DenseMatrix, Lu};
///
/// # fn main() -> Result<(), tecopt_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]])?;
/// let lu = Lu::factor(&a)?;
/// assert!((lu.det() + 6.0).abs() < 1e-12);
/// let x = lu.solve(&[2.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (below diagonal, unit diagonal implicit) and U (upper).
    lu: DenseMatrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0).
    perm_sign: f64,
}

impl Lu {
    /// Factors a square matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::Singular`] if no usable pivot exists in some column.
    pub fn factor(a: &DenseMatrix) -> Result<Lu, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for col in 0..n {
            // Find pivot.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = lu[(col, c)];
                    lu[(col, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(col, pivot_row);
                sign = -sign;
            }
            let piv = lu[(col, col)];
            for r in (col + 1)..n {
                let factor = lu[(r, col)] / piv;
                lu[(r, col)] = factor;
                for c in (col + 1)..n {
                    let v = lu[(col, c)];
                    lu[(r, c)] -= factor * v;
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign: sign,
        })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for k in 0..self.dim() {
            d *= self.lu[(k, k)];
        }
        d
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
        // Apply permutation, forward substitution with unit-diagonal L.
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 0..n {
            let row = self.lu.row(i);
            let dot: f64 = row[..i].iter().zip(&y[..i]).map(|(a, b)| a * b).sum();
            y[i] -= dot;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let dot: f64 = row[i + 1..]
                .iter()
                .zip(&y[i + 1..])
                .map(|(a, b)| a * b)
                .sum();
            y[i] = (y[i] - dot) / row[i];
        }
        Ok(y)
    }
}

/// Determinant of a square matrix via LU; zero if the matrix is singular.
///
/// Convenience used by the Lemma-2 experiments (`det(A_kl)` of the singular
/// runaway matrix `A = G − λ_m·D`).
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
pub fn determinant(a: &DenseMatrix) -> Result<f64, LinalgError> {
    match Lu::factor(a) {
        Ok(lu) => Ok(lu.det()),
        Err(LinalgError::Singular { .. }) => Ok(0.0),
        Err(e) => Err(e),
    }
}

/// `(sign, ln|det|)` of a square matrix via LU.
///
/// Unlike [`determinant`], this stays meaningful for large matrices whose
/// determinant under- or overflows `f64` (a few hundred thermal-conductance
/// pivots of magnitude 10⁻² already underflow). An exactly singular matrix
/// returns `(0.0, -inf)`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
pub fn log_abs_determinant(a: &DenseMatrix) -> Result<(f64, f64), LinalgError> {
    let lu = match Lu::factor(a) {
        Ok(lu) => lu,
        Err(LinalgError::Singular { .. }) => return Ok((0.0, f64::NEG_INFINITY)),
        Err(e) => return Err(e),
    };
    let mut sign = lu.perm_sign;
    let mut log = 0.0;
    for k in 0..lu.dim() {
        let p = lu.lu[(k, k)];
        if p < 0.0 {
            sign = -sign;
        }
        log += p.abs().ln();
    }
    Ok((sign, log))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_and_solve_permuted_system() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0, 2.0], &[1.0, 0.0, 3.0], &[4.0, -3.0, 8.0]])
            .unwrap();
        let lu = Lu::factor(&a).unwrap();
        let b = [3.0, 4.0, 9.0];
        let x = lu.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn determinant_of_known_matrix() {
        let a = DenseMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!((Lu::factor(&a).unwrap().det() - 6.0).abs() < 1e-12);
        // Row swap flips sign bookkeeping but not the determinant value.
        let b = DenseMatrix::from_rows(&[&[0.0, 3.0], &[2.0, 0.0]]).unwrap();
        assert!((Lu::factor(&b).unwrap().det() + 6.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
        assert_eq!(determinant(&a).unwrap(), 0.0);
    }

    #[test]
    fn determinant_helper_on_regular_matrix() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((determinant(&a).unwrap() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            Lu::factor(&DenseMatrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(determinant(&DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn solve_dimension_mismatch() {
        let a = DenseMatrix::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn agrees_with_cholesky_on_spd() {
        let a =
            DenseMatrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
                .unwrap();
        let lu = Lu::factor(&a).unwrap();
        let chol = crate::Cholesky::factor(&a).unwrap();
        let b = [0.3, -1.2, 2.2];
        let x1 = lu.solve(&b).unwrap();
        let x2 = chol.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10);
        }
        assert!((lu.det().ln() - chol.log_det()).abs() < 1e-10);
    }
}

#[cfg(test)]
mod log_det_tests {
    use super::*;

    #[test]
    fn log_abs_determinant_matches_direct_on_small_matrices() {
        let a = DenseMatrix::from_rows(&[&[2.0, 0.5], &[1.0, 3.0]]).unwrap();
        let (sign, log) = log_abs_determinant(&a).unwrap();
        assert_eq!(sign, 1.0);
        assert!((log - 5.5_f64.ln()).abs() < 1e-12);
        let b = DenseMatrix::from_rows(&[&[0.0, 3.0], &[2.0, 0.0]]).unwrap();
        let (sign, log) = log_abs_determinant(&b).unwrap();
        assert_eq!(sign, -1.0);
        assert!((log - 6.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn log_abs_determinant_survives_underflow_scales() {
        // 400 pivots of 1e-3: det = 1e-1200 underflows, the log does not.
        let n = 400;
        let a = DenseMatrix::from_diagonal(&vec![1e-3; n]);
        assert_eq!(determinant(&a).unwrap(), 0.0 + determinant(&a).unwrap()); // plain det may underflow to 0
        let (sign, log) = log_abs_determinant(&a).unwrap();
        assert_eq!(sign, 1.0);
        assert!((log - n as f64 * (1e-3_f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn singular_matrix_reports_zero_sign() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let (sign, log) = log_abs_determinant(&a).unwrap();
        assert_eq!(sign, 0.0);
        assert_eq!(log, f64::NEG_INFINITY);
    }

    #[test]
    fn non_square_rejected_for_log_det() {
        assert!(log_abs_determinant(&DenseMatrix::zeros(2, 3)).is_err());
    }
}
