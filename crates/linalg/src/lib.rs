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
//! - [`Cholesky`] — sparse `P·A·Pᵀ = L·Lᵀ` factorization under a
//!   minimum-degree ordering ([`CholeskyPattern`], analysed once per
//!   network and shared), the positive-definiteness oracle used by the
//!   paper's `λ_m` search, plus solves and inverses; [`DenseCholesky`]
//!   keeps the paper's dense `O(n³)` kernel as the slow oracle,
//! - [`Lu`] — partially pivoted LU for determinants (the minors of the
//!   paper's Lemma 2) and as the tests' cross-check of [`Cholesky`],
//! - [`CsrMatrix`] — the storage every conductance matrix is stamped into
//!   and factored from, and with [`conjugate_gradient`] the kernel of the
//!   fine-grid reference thermal solver,
//! - [`SolverBackend`] / [`FactoredSystem`] — one interface over the
//!   sparse Cholesky (what `Auto` picks at every size), the dense oracle,
//!   and Jacobi-preconditioned CG; [`SolveMethod`] names which kind of
//!   solve ran and [`WARN_CONDITION`] the pivot-ratio estimate above which
//!   a solve counts as degraded. A failed Cholesky is never retried by
//!   another method: it is the positive-definiteness verdict,
//! - [`stieltjes`] — structure checks (symmetric, nonpositive off-diagonal,
//!   irreducible) and seeded random generation of positive-definite Stieltjes
//!   matrices for the Conjecture-1 experiments,
//! - [`ShiftedCholesky`] — one factorization of the family `G − i·D` for a
//!   `D` on `k` declared nodes: `G_AA` factored once and a dense `k×k`
//!   trailing block per current, or the network's own sparse factor when
//!   `k` is too large for that to pay ([`FactorPlan`]),
//! - [`eigen`] — power/inverse iteration and the generalized smallest
//!   "eigenvalue" `λ_m = min θᵀGθ/θᵀDθ` via positive-definiteness bisection
//!   over [`ShiftedCholesky::is_pd_at`],
//! - [`UpdatableFactor`] / [`DiagonalUpdate`] — Sherman–Morrison–Woodbury
//!   rank-k diagonal updates over a cached sparse Cholesky factor, with a
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
mod dense_cholesky;
pub mod eigen;
mod error;
mod lu;
mod matrix;
mod shifted;
mod sparse;
pub mod stieltjes;
mod update;

pub use backend::{
    BackendSolve, FactoredSystem, ResolvedBackend, SolveMethod, SolverBackend, WARN_CONDITION,
};
pub use cancel::CancelToken;
pub use cg::{conjugate_gradient, conjugate_gradient_cancellable, CgOutcome, CgSettings};
pub use cholesky::{Cholesky, CholeskyPattern};
pub use dense_cholesky::DenseCholesky;
pub use error::LinalgError;
pub use lu::{determinant, log_abs_determinant, Lu};
pub use matrix::DenseMatrix;
pub use shifted::{FactorPlan, LeadingSolve, ShiftedCholesky, ShiftedFactor};
pub use sparse::{CsrMatrix, Triplet};
pub use update::{AppliedUpdate, DiagonalUpdate, SmallLdl, UpdatableFactor, LDL_PIVOT_FLOOR};
