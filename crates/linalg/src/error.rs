use core::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// A matrix was expected to be square but is `rows x cols`.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Operand dimensions are incompatible.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// A ragged row list was supplied to a constructor.
    RaggedRows {
        /// Index of the offending row.
        row: usize,
        /// Length of the offending row.
        len: usize,
        /// Length of the first row.
        expected: usize,
    },
    /// Cholesky factorization failed: the matrix is not positive definite.
    /// Carries the pivot index at which factorization broke down.
    NotPositiveDefinite {
        /// Pivot index where a nonpositive diagonal was encountered.
        pivot: usize,
    },
    /// LU factorization hit a (numerically) singular pivot.
    Singular {
        /// Pivot index where singularity was detected.
        pivot: usize,
    },
    /// An iterative method failed to converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm when iteration stopped.
        residual: f64,
    },
    /// A matrix entry or vector element is NaN or infinite.
    NonFiniteEntry {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A Sherman–Morrison–Woodbury update's capacitance pivots are too small
    /// to trust ([`UpdatableFactor`](crate::UpdatableFactor)): the corrected
    /// solution would be dominated by rounding error, so the caller
    /// refactors from scratch instead.
    IllConditioned {
        /// Pivot-ratio condition-number estimate of the factored matrix.
        estimate: f64,
    },
    /// An iteration or probe budget was exhausted before the requested
    /// accuracy was reached. Guarantees that adversarial inputs cannot hang
    /// the searches; the caller can retry with a larger budget.
    BudgetExhausted {
        /// Work units (probes, attempts, evaluations) actually spent.
        spent: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Input violated a documented precondition.
    InvalidInput(String),
    /// The caller's [`CancelToken`](crate::CancelToken) was raised and the
    /// kernel stopped cooperatively at its next iteration boundary.
    Cancelled {
        /// Iterations completed before the cancellation was observed.
        iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, expected square")
            }
            LinalgError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LinalgError::RaggedRows { row, len, expected } => {
                write!(f, "row {row} has length {len}, expected {expected}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (pivot {pivot})")
            }
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "iteration did not converge after {iterations} steps (residual {residual:e})"
                )
            }
            LinalgError::NonFiniteEntry { row, col } => {
                write!(f, "non-finite entry at ({row}, {col})")
            }
            LinalgError::IllConditioned { estimate } => {
                write!(
                    f,
                    "matrix is ill-conditioned (pivot-ratio estimate {estimate:.3e})"
                )
            }
            LinalgError::BudgetExhausted { spent, budget } => {
                write!(f, "budget exhausted after {spent} of {budget} work units")
            }
            LinalgError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            LinalgError::Cancelled { iterations } => {
                write!(f, "cancelled by the caller after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            LinalgError::NotSquare { rows: 2, cols: 3 }.to_string(),
            LinalgError::DimensionMismatch {
                expected: 4,
                actual: 5,
            }
            .to_string(),
            LinalgError::NotPositiveDefinite { pivot: 1 }.to_string(),
            LinalgError::Singular { pivot: 0 }.to_string(),
            LinalgError::NoConvergence {
                iterations: 10,
                residual: 1e-3,
            }
            .to_string(),
            LinalgError::NonFiniteEntry { row: 1, col: 2 }.to_string(),
            LinalgError::IllConditioned { estimate: 1e17 }.to_string(),
            LinalgError::BudgetExhausted {
                spent: 64,
                budget: 64,
            }
            .to_string(),
            LinalgError::InvalidInput("bad".into()).to_string(),
            LinalgError::Cancelled { iterations: 3 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
