//! Linear-algebra kernels for the `tecopt` workspace.
//!
//! The thermal steady-state analysis in the paper reduces to factorizations
//! of symmetric matrices of the form `G − i·D` (Eq. 4 of the paper) where `G`
//! is an irreducible positive-definite [Stieltjes matrix](stieltjes). This
//! crate provides everything the higher layers need, implemented from
//! scratch:
//!
//! - [`DenseMatrix`] — row-major dense storage with the handful of BLAS-1/2/3
//!   operations the solvers use,
//! - [`Cholesky`] — `L·Lᵀ` factorization, the positive-definiteness oracle
//!   used by the paper's `λ_m` binary search, plus solves and inverses,
//! - [`Lu`] — partially pivoted LU for general systems and determinants,
//! - [`CsrMatrix`] and [`conjugate_gradient`] — sparse kernels for the
//!   fine-grid reference thermal solver,
//! - [`SolverBackend`] / [`FactoredSystem`] — the dense-vs-sparse routing
//!   layer: one interface over Cholesky and preconditioned CG with an
//!   automatic size/density crossover,
//! - [`stieltjes`] — structure checks (symmetric, nonpositive off-diagonal,
//!   irreducible) and seeded random generation of positive-definite Stieltjes
//!   matrices for the Conjecture-1 experiments,
//! - [`eigen`] — power/inverse iteration and the generalized smallest
//!   "eigenvalue" `λ_m = min θᵀGθ/θᵀDθ` via positive-definiteness bisection,
//!   with one factorization per search and `k×k` Schur-complement probes on
//!   the Peltier nodes,
//! - [`UpdatableFactor`] / [`DiagonalUpdate`] — Sherman–Morrison–Woodbury
//!   rank-k diagonal updates over a cached Cholesky factor, with a
//!   Haynsworth inertia certificate rejecting updates past runaway.
//!
//! ```
//! use tecopt_linalg::{Cholesky, DenseMatrix};
//!
//! # fn main() -> Result<(), tecopt_linalg::LinalgError> {
//! let g = DenseMatrix::from_rows(&[&[4.0, -1.0], &[-1.0, 3.0]])?;
//! let chol = Cholesky::factor(&g)?;
//! let x = chol.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] - x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

mod backend;
mod cancel;
mod cg;
mod cholesky;
pub mod eigen;
mod error;
mod lu;
mod matrix;
mod robust;
mod sparse;
pub mod stieltjes;
mod update;

pub use backend::{
    BackendSolve, FactoredSystem, ResolvedBackend, SolverBackend, SPARSE_MAX_DENSITY,
    SPARSE_MIN_DIM,
};
pub use cancel::CancelToken;
pub use cg::{conjugate_gradient, conjugate_gradient_cancellable, CgOutcome, CgSettings};
pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lu::{determinant, log_abs_determinant, Lu};
pub use matrix::DenseMatrix;
pub use robust::{solve_robust, RobustSolution, SolveDiagnostics, SolveMethod, SolverPolicy};
pub use sparse::{CsrMatrix, Triplet};
pub use update::{AppliedUpdate, DiagonalUpdate, SmallLdl, UpdatableFactor, LDL_PIVOT_FLOOR};
