//! One factorization per placement: the Cholesky of the family
//! `G − i·D` for a diagonal `D` supported on `k` declared nodes.
//!
//! Every steady solve and every `λ_m` probe of the paper factors a matrix
//! of this family, and `D` only touches the `k` TEC terminal nodes (`k`
//! is 2 × devices, 4–28 on the Table-I chips against `n ≈ 536`). Order
//! those nodes last: with `A` the nodes off the support and `B` the
//! support,
//!
//! ```text
//! G − i·D = [ G_AA   G_AB        ]      X  = G_AA⁻¹·G_AB
//!           [ G_BA   G_BB − i·D_B ]     S₀ = G_BB − G_BA·X
//!
//! G − i·D ≻ 0   ⇔   G_AA ≻ 0  and  S₀ − i·D_B ≻ 0           (Haynsworth)
//! θ_B = (S₀ − i·D_B)⁻¹·(b_B − G_BA·y_A),  θ_A = y_A − X·θ_B,  y_A = G_AA⁻¹·b_A
//! ```
//!
//! so `G_AA` is analysed and factored once, `X` and `S₀` are formed once,
//! and each shift refactors only the dense `k×k` trailing block. `y_A`
//! does not depend on the shift; [`ShiftedCholesky::leading_solve`] hands
//! it out for callers that solve one right-hand side at many shifts.
//!
//! The trailing block costs `k³/3` flops per shift, a numeric factor of
//! the whole network about as much as one of `G_AA`. [`FactorPlan`]
//! records which the family took: the trailing block when `k³/3` is at
//! most the flop count of `G_AA`'s own numeric factor
//! ([`CholeskyPattern::factor_flops`]), otherwise a sparse numeric factor
//! of all of `G − i·D` on the network's pattern (at full cover, `k = 288`
//! on a 12×12 package, a dense block would cost 60× a network factor).

use std::sync::Arc;

use crate::{Cholesky, CholeskyPattern, CsrMatrix, DenseCholesky, DenseMatrix, LinalgError};

/// Which factorization a [`ShiftedCholesky`] runs per shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorPlan {
    /// `G_AA` factored once and a dense Cholesky of the `k×k` trailing
    /// block `S₀ − i·D_B` per shift.
    TrailingBlock {
        /// Size of the declared support (the Peltier nodes).
        k: usize,
    },
    /// A sparse numeric factor of all of `G − i·D` on the network's
    /// pattern per shift.
    Network,
}

/// The factorization of the family `i ↦ G − i·D` (see the module docs):
/// built once, then [`ShiftedCholesky::is_pd_at`] and
/// [`ShiftedCholesky::factor_at`] answer any current.
#[derive(Debug)]
pub struct ShiftedCholesky {
    n: usize,
    /// The declared support of `D`, ascending.
    support: Vec<usize>,
    /// `D` on `support`.
    d_support: Vec<f64>,
    family: Family,
}

#[derive(Debug)]
enum Family {
    Block(Arc<TrailingBlock>),
    Network {
        pattern: Arc<CholeskyPattern>,
        /// The lower triangle of `G` in the pattern's layout.
        lower: Vec<f64>,
        /// Where the diagonal of each support node sits in `lower`.
        diag_slots: Vec<usize>,
    },
}

#[derive(Debug)]
struct TrailingBlock {
    /// The nodes off the support, ascending.
    free: Vec<usize>,
    g_aa: Cholesky,
    /// `X = G_AA⁻¹·G_AB`, one column per support node.
    x: Vec<Vec<f64>>,
    /// The stored entries of `G_BA`, row by row: (position in `free`,
    /// value).
    g_ba: Vec<Vec<(usize, f64)>>,
    s0: DenseMatrix,
}

/// `y_A = G_AA⁻¹·b_A` for one right-hand side `b`: the part of a solve
/// that does not depend on the shift (see
/// [`ShiftedCholesky::leading_solve`]). Empty under [`FactorPlan::Network`].
#[derive(Debug, Clone)]
pub struct LeadingSolve {
    /// `b_A`, the right-hand side this was computed from.
    rhs: Vec<f64>,
    y: Vec<f64>,
}

/// The factorization of `G − i·D` at one shift, sharing its family.
#[derive(Debug, Clone)]
pub struct ShiftedFactor {
    family: Arc<ShiftedCholesky>,
    factor: PerShift,
}

#[derive(Debug, Clone)]
enum PerShift {
    Block {
        block: Arc<TrailingBlock>,
        s: DenseCholesky,
    },
    Network(Cholesky),
}

impl ShiftedCholesky {
    /// Builds the family for the symmetric `g` and the diagonal `d`, which
    /// must vanish off `support` (a list of node indices; order and
    /// repeats do not matter, and `d` may be zero on it).
    ///
    /// For a nonempty support `G_AA` is analysed whatever the plan, since
    /// the plan rule needs its flop count. `network_pattern` must return
    /// the analysis of `g`'s own structure; it is called under
    /// [`FactorPlan::Network`] and for an empty support, where `G_AA` is
    /// `g` itself and is factored on that pattern.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`]
    ///   for a non-square `g` or a `d` of another length.
    /// - [`LinalgError::InvalidInput`] for a support node out of bounds or
    ///   a nonzero `D` entry outside the support.
    /// - [`LinalgError::NotPositiveDefinite`] if `G_AA` is not positive
    ///   definite (then no `G − i·D` is), naming the failing node.
    /// - Whatever `network_pattern` returns, and the structure check of
    ///   [`Cholesky::factor_csr_with`] against the pattern it returns.
    pub fn new(
        g: &CsrMatrix,
        d: &[f64],
        support: &[usize],
        network_pattern: impl FnOnce() -> Result<Arc<CholeskyPattern>, LinalgError>,
    ) -> Result<ShiftedCholesky, LinalgError> {
        ShiftedCholesky::build(g, d, support, None, network_pattern)
    }

    /// [`ShiftedCholesky::new`] on the given plan instead of the rule's,
    /// for measurements and oracle tests that need both plans on one
    /// placement (the solver stack always takes the rule's).
    ///
    /// # Errors
    ///
    /// As [`ShiftedCholesky::new`], plus [`LinalgError::InvalidInput`] if
    /// a [`FactorPlan::TrailingBlock`] names another `k` than the support's.
    pub fn with_plan(
        g: &CsrMatrix,
        d: &[f64],
        support: &[usize],
        plan: FactorPlan,
        network_pattern: impl FnOnce() -> Result<Arc<CholeskyPattern>, LinalgError>,
    ) -> Result<ShiftedCholesky, LinalgError> {
        ShiftedCholesky::build(g, d, support, Some(plan), network_pattern)
    }

    fn build(
        g: &CsrMatrix,
        d: &[f64],
        support: &[usize],
        plan: Option<FactorPlan>,
        network_pattern: impl FnOnce() -> Result<Arc<CholeskyPattern>, LinalgError>,
    ) -> Result<ShiftedCholesky, LinalgError> {
        let n = g.rows();
        if g.cols() != n {
            return Err(LinalgError::NotSquare {
                rows: n,
                cols: g.cols(),
            });
        }
        if d.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: d.len(),
            });
        }
        let mut support = support.to_vec();
        support.sort_unstable();
        support.dedup();
        if let Some(&b) = support.last().filter(|&&b| b >= n) {
            return Err(LinalgError::InvalidInput(format!(
                "support node {b} out of bounds for n = {n}"
            )));
        }
        let mut on_support = vec![false; n];
        for &b in &support {
            on_support[b] = true;
        }
        if let Some(k) = (0..n).find(|&k| !on_support[k] && d[k] != 0.0) {
            return Err(LinalgError::InvalidInput(format!(
                "D entry {} at node {k} lies outside the declared support",
                d[k]
            )));
        }
        let free: Vec<usize> = (0..n).filter(|&k| !on_support[k]).collect();
        let d_support: Vec<f64> = support.iter().map(|&b| d[b]).collect();
        if support.is_empty() && plan != Some(FactorPlan::Network) {
            // A passive placement: G_AA is G, so factor it on the network's
            // own pattern rather than analyse a copy of it.
            let g_aa = Cholesky::factor_csr_with(&network_pattern()?, g)?;
            return Ok(ShiftedCholesky {
                n,
                support,
                d_support,
                family: Family::Block(Arc::new(TrailingBlock {
                    free,
                    g_aa,
                    x: Vec::new(),
                    g_ba: Vec::new(),
                    s0: DenseMatrix::zeros(0, 0),
                })),
            });
        }

        // One pass over the stored entries: G_AA as CSR (the free nodes
        // keep their relative order, so its rows stay sorted), and the
        // stored entries of G_AB (one list per support node) and G_BB.
        let mut slot = vec![0; n];
        for block in [&free, &support] {
            for (s, &node) in block.iter().enumerate() {
                slot[node] = s;
            }
        }
        let mut aa_ptr = Vec::with_capacity(free.len() + 1);
        let mut aa_col = Vec::with_capacity(g.nnz());
        let mut aa_val = Vec::with_capacity(g.nnz());
        aa_ptr.push(0);
        let mut g_ba: Vec<Vec<(usize, f64)>> = vec![Vec::new(); support.len()];
        let mut g_bb = Vec::new();
        for r in 0..n {
            for t in g.row_ptr()[r]..g.row_ptr()[r + 1] {
                let (c, v) = (g.col_indices()[t], g.values()[t]);
                match (on_support[r], on_support[c]) {
                    (false, false) => {
                        aa_col.push(slot[c]);
                        aa_val.push(v);
                    }
                    (false, true) => g_ba[slot[c]].push((slot[r], v)),
                    (true, true) => g_bb.push((slot[r], slot[c], v)),
                    (true, false) => {}
                }
            }
            if !on_support[r] {
                aa_ptr.push(aa_col.len());
            }
        }
        let g_aa = CsrMatrix::from_parts(free.len(), free.len(), aa_ptr, aa_col, aa_val);
        let aa_pattern = Arc::new(CholeskyPattern::analyse_csr(&g_aa)?);

        let k = support.len() as f64;
        let trailing = match plan {
            None => k * k * k / 3.0 <= aa_pattern.factor_flops(),
            Some(FactorPlan::TrailingBlock { k }) if k != support.len() => {
                return Err(LinalgError::InvalidInput(format!(
                    "a trailing block of {k} nodes for a support of {}",
                    support.len()
                )));
            }
            Some(plan) => plan != FactorPlan::Network,
        };
        let family = if trailing {
            let g_aa = Cholesky::factor_csr_with(&aa_pattern, &g_aa).map_err(|e| match e {
                LinalgError::NotPositiveDefinite { pivot } => {
                    LinalgError::NotPositiveDefinite { pivot: free[pivot] }
                }
                other => other,
            })?;
            let g_ab: Vec<Vec<f64>> = g_ba
                .iter()
                .map(|stored| {
                    let mut col = vec![0.0; free.len()];
                    for &(a, v) in stored {
                        col[a] = v;
                    }
                    col
                })
                .collect();
            let x = g_aa.solve_many(&g_ab)?;
            let mut s0 = DenseMatrix::zeros(support.len(), support.len());
            for (r, c, v) in g_bb {
                s0[(r, c)] = v;
            }
            // S₀ −= G_BA·X over the stored entries only, in ascending
            // order: the skipped terms are exact zeros.
            for (r, g_ba_r) in g_ba.iter().enumerate() {
                for (c, x_c) in x.iter().enumerate() {
                    s0[(r, c)] -= g_ba_r.iter().map(|&(a, u)| u * x_c[a]).sum::<f64>();
                }
            }
            Family::Block(Arc::new(TrailingBlock {
                free,
                g_aa,
                x,
                g_ba,
                s0,
            }))
        } else {
            let pattern = network_pattern()?;
            let lower = pattern.gather(g)?;
            let diag_slots = support
                .iter()
                .map(|&b| pattern.diagonal_position(b))
                .collect();
            Family::Network {
                pattern,
                lower,
                diag_slots,
            }
        };
        Ok(ShiftedCholesky {
            n,
            support,
            d_support,
            family,
        })
    }

    /// `D` on the declared support, ascending by node.
    pub(crate) fn d_support(&self) -> &[f64] {
        &self.d_support
    }

    /// Which factorization this family runs per shift.
    pub fn plan(&self) -> FactorPlan {
        match self.family {
            Family::Block(_) => FactorPlan::TrailingBlock {
                k: self.support.len(),
            },
            Family::Network { .. } => FactorPlan::Network,
        }
    }

    /// Whether `G − i·D` is positive definite: the verdict of exactly the
    /// factorization [`ShiftedCholesky::factor_at`] would return.
    ///
    /// # Errors
    ///
    /// Only errors other than [`LinalgError::NotPositiveDefinite`] (none
    /// for a family built without error).
    pub fn is_pd_at(&self, i: f64) -> Result<bool, LinalgError> {
        match self.per_shift(i) {
            Ok(_) => Ok(true),
            Err(LinalgError::NotPositiveDefinite { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The factorization of `G − i·D`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] past the runaway limit, naming
    /// the node whose pivot failed.
    pub fn factor_at(self: &Arc<Self>, i: f64) -> Result<ShiftedFactor, LinalgError> {
        Ok(ShiftedFactor {
            family: Arc::clone(self),
            factor: self.per_shift(i)?,
        })
    }

    /// `y_A = G_AA⁻¹·b_A` for the right-hand side `b`: reuse it across
    /// shifts with [`ShiftedFactor::solve_with`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn leading_solve(&self, b: &[f64]) -> Result<LeadingSolve, LinalgError> {
        self.check_len(b)?;
        match &self.family {
            Family::Block(blk) => {
                let rhs: Vec<f64> = blk.free.iter().map(|&a| b[a]).collect();
                let y = blk.g_aa.solve(&rhs)?;
                Ok(LeadingSolve { rhs, y })
            }
            Family::Network { .. } => Ok(LeadingSolve {
                rhs: Vec::new(),
                y: Vec::new(),
            }),
        }
    }

    fn per_shift(&self, i: f64) -> Result<PerShift, LinalgError> {
        match &self.family {
            Family::Block(blk) => {
                let mut s = blk.s0.clone();
                for (r, &d_r) in self.d_support.iter().enumerate() {
                    s[(r, r)] += -i * d_r;
                }
                DenseCholesky::factor(&s)
                    .map(|s| PerShift::Block {
                        block: Arc::clone(blk),
                        s,
                    })
                    .map_err(|e| match e {
                        LinalgError::NotPositiveDefinite { pivot } => {
                            LinalgError::NotPositiveDefinite {
                                pivot: self.support[pivot],
                            }
                        }
                        other => other,
                    })
            }
            Family::Network {
                pattern,
                lower,
                diag_slots,
            } => {
                // `g_kk + (−i)·d_k`: the arithmetic of the solve
                // workspace's `g_kk − i·d_k`, bit for bit.
                let mut m = lower.clone();
                for (&slot, &d_r) in diag_slots.iter().zip(&self.d_support) {
                    m[slot] += -i * d_r;
                }
                Cholesky::numeric(Arc::clone(pattern), &m).map(PerShift::Network)
            }
        }
    }

    fn check_len(&self, b: &[f64]) -> Result<(), LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        Ok(())
    }
}

impl TrailingBlock {
    /// Block substitution for one right-hand side `b` with `y = y_A`.
    fn finish(
        &self,
        s: &DenseCholesky,
        support: &[usize],
        y: &[f64],
        b: &[f64],
    ) -> Result<Vec<f64>, LinalgError> {
        let rhs_b: Vec<f64> = support
            .iter()
            .zip(&self.g_ba)
            .map(|(&node, row)| b[node] - row.iter().map(|&(a, u)| u * y[a]).sum::<f64>())
            .collect();
        let theta_b = s.solve(&rhs_b)?;
        let mut theta_a = y.to_vec();
        for (x_c, &t) in self.x.iter().zip(&theta_b) {
            for (v, &x) in theta_a.iter_mut().zip(x_c) {
                *v -= x * t;
            }
        }
        let mut theta = vec![0.0; b.len()];
        for (&a, v) in self.free.iter().zip(theta_a) {
            theta[a] = v;
        }
        for (&node, v) in support.iter().zip(theta_b) {
            theta[node] = v;
        }
        Ok(theta)
    }
}

impl ShiftedFactor {
    /// The family this factor belongs to.
    pub fn family(&self) -> &Arc<ShiftedCholesky> {
        &self.family
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.family.n
    }

    /// Solves `(G − i·D)·x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.solve_with(&self.family.leading_solve(b)?, b)
    }

    /// [`ShiftedFactor::solve`] with `y_A` from a
    /// [`ShiftedCholesky::leading_solve`] of `b` (or of any right-hand
    /// side that equals `b` off the support): bit-identical to
    /// [`ShiftedFactor::solve`], minus the `G_AA` solve.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    /// - [`LinalgError::InvalidInput`] if `lead` was computed for a
    ///   right-hand side that differs from `b` off the support.
    pub fn solve_with(&self, lead: &LeadingSolve, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let family = &*self.family;
        family.check_len(b)?;
        match &self.factor {
            PerShift::Block { block, s } => {
                let same = lead.rhs.len() == block.free.len()
                    && block
                        .free
                        .iter()
                        .zip(&lead.rhs)
                        .all(|(&a, v)| b[a].to_bits() == v.to_bits());
                if !same {
                    return Err(LinalgError::InvalidInput(
                        "the leading solve belongs to another right-hand side".into(),
                    ));
                }
                block.finish(s, &family.support, &lead.y, b)
            }
            PerShift::Network(chol) => chol.solve(b),
        }
    }

    /// Solves `(G − i·D)·X = B` column by column, with one blocked `G_AA`
    /// solve for the whole block; each column is bit-identical to
    /// [`ShiftedFactor::solve`] under [`FactorPlan::TrailingBlock`] and to
    /// [`Cholesky::solve_many`] under [`FactorPlan::Network`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if a column's length is not `n`.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let family = &*self.family;
        for b in rhs {
            family.check_len(b)?;
        }
        match &self.factor {
            PerShift::Block { block, s } => {
                let cols_a: Vec<Vec<f64>> = rhs
                    .iter()
                    .map(|b| block.free.iter().map(|&a| b[a]).collect())
                    .collect();
                let ys = block.g_aa.solve_many(&cols_a)?;
                rhs.iter()
                    .zip(&ys)
                    .map(|(b, y)| block.finish(s, &family.support, y, b))
                    .collect()
            }
            PerShift::Network(chol) => chol.solve_many(rhs),
        }
    }

    /// Pivot-ratio estimate of `κ₂(G − i·D)`, as
    /// [`Cholesky::condition_estimate`]: under the trailing block the
    /// pivots are those of `L_AA` and of the `k×k` block, which together
    /// are the pivots of a Cholesky factor with the support ordered last.
    pub fn condition_estimate(&self) -> f64 {
        match &self.factor {
            PerShift::Block { block, s } => {
                let l = s.l();
                let (lo, hi) = block
                    .g_aa
                    .pivots()
                    .chain((0..l.rows()).map(|r| l[(r, r)]))
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                        (lo.min(p), hi.max(p))
                    });
                if lo == f64::INFINITY {
                    1.0
                } else if lo <= 0.0 {
                    f64::INFINITY
                } else {
                    (hi / lo) * (hi / lo)
                }
            }
            PerShift::Network(chol) => chol.condition_estimate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D chain `tridiag(−1, 2.5, −1)`.
    fn chain(n: usize) -> CsrMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        for k in 0..n {
            a[(k, k)] = 2.5;
            if k + 1 < n {
                a[(k, k + 1)] = -1.0;
                a[(k + 1, k)] = -1.0;
            }
        }
        CsrMatrix::from_dense(&a)
    }

    fn analyse(g: &CsrMatrix) -> impl FnOnce() -> Result<Arc<CholeskyPattern>, LinalgError> + '_ {
        || Ok(Arc::new(CholeskyPattern::analyse_csr(g)?))
    }

    #[test]
    fn plan_follows_the_flop_rule() {
        let g = chain(40);
        let mut d = vec![0.0; 40];
        d[10] = 1.0;
        d[30] = -1.0;
        let two = ShiftedCholesky::new(&g, &d, &[10, 30], analyse(&g)).unwrap();
        assert_eq!(two.plan(), FactorPlan::TrailingBlock { k: 2 });
        // Every node on the support: G_AA is empty and costs nothing.
        let all: Vec<usize> = (0..40).collect();
        let full = ShiftedCholesky::new(&g, &d, &all, analyse(&g)).unwrap();
        assert_eq!(full.plan(), FactorPlan::Network);
        let (two, full) = (Arc::new(two), Arc::new(full));
        let b: Vec<f64> = (0..40).map(|k| 1.0 + k as f64 * 0.1).collect();
        for i in [0.0, 0.3, 0.9] {
            let x = two.factor_at(i).unwrap().solve(&b).unwrap();
            let y = full.factor_at(i).unwrap().solve(&b).unwrap();
            for (p, q) in x.iter().zip(&y) {
                assert!((p - q).abs() < 1e-12, "{p} vs {q} at i = {i}");
            }
        }
    }

    #[test]
    fn network_pattern_is_only_asked_for_when_needed() {
        let g = chain(10);
        let mut d = vec![0.0; 10];
        d[4] = 1.0;
        let block = ShiftedCholesky::new(&g, &d, &[4], || {
            Err(LinalgError::InvalidInput("not needed".into()))
        })
        .unwrap();
        assert_eq!(block.plan(), FactorPlan::TrailingBlock { k: 1 });
        // A passive placement factors G itself on the network's pattern.
        let pattern = Arc::new(CholeskyPattern::analyse_csr(&g).unwrap());
        let passive =
            ShiftedCholesky::new(&g, &[0.0; 10], &[], || Ok(Arc::clone(&pattern))).unwrap();
        assert_eq!(passive.plan(), FactorPlan::TrailingBlock { k: 0 });
        let Family::Block(blk) = &passive.family else {
            panic!("a passive placement takes the trailing block");
        };
        assert!(Arc::ptr_eq(blk.g_aa.pattern(), &pattern));
    }

    #[test]
    fn leading_solve_must_match_the_right_hand_side() {
        let g = chain(12);
        let mut d = vec![0.0; 12];
        d[4] = 1.0;
        let fam = Arc::new(ShiftedCholesky::new(&g, &d, &[4], analyse(&g)).unwrap());
        let f = fam.factor_at(0.5).unwrap();
        let b = vec![1.0; 12];
        let lead = fam.leading_solve(&b).unwrap();
        let mut on_support = b.clone();
        on_support[4] = 7.0;
        assert_eq!(
            f.solve_with(&lead, &on_support).unwrap(),
            f.solve(&on_support).unwrap()
        );
        let mut off_support = b.clone();
        off_support[3] = 7.0;
        assert!(matches!(
            f.solve_with(&lead, &off_support),
            Err(LinalgError::InvalidInput(_))
        ));
    }

    #[test]
    fn runaway_names_a_support_node() {
        let g = chain(8);
        let mut d = vec![0.0; 8];
        d[3] = 1.0;
        let fam = Arc::new(ShiftedCholesky::new(&g, &d, &[3, 5], analyse(&g)).unwrap());
        assert!(fam.is_pd_at(0.0).unwrap());
        assert!(!fam.is_pd_at(10.0).unwrap());
        assert_eq!(
            fam.factor_at(10.0).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 3 }
        );
    }
}
