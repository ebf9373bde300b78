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
//! and each shift refactors only the dense `k×k` trailing block. The
//! analysis of `G_AA` may reuse a caller's order
//! ([`ShiftedCholesky::with_order`]): the thermal model hands over its
//! package's passive order, so a placement runs no minimum-degree search. `y_A`
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
//!
//! A build is two parts: the leading block, which depends on `G_AA` and
//! `G_AB` alone (the analysis and factor of `G_AA`, `X`, `G_BA` and
//! `P = G_BA·X`), and the trailing part `S₀ = G_BB − P`. Placements that
//! differ only on the support × support entries of `G` and in `D` — the
//! film thicknesses of one mask in a design sweep — share the leading
//! block through a [`LeadingBlockCache`] handed to
//! [`ShiftedCholesky::with_order`]; a family built on a shared block is
//! bit-identical to one built alone.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::cholesky::check_permutation;
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
    lead: Arc<LeadingBlock>,
    /// `S₀ = G_BB − P`.
    s0: DenseMatrix,
}

/// The part of a [`FactorPlan::TrailingBlock`] family that depends only
/// on `G_AA` and `G_AB`: a function of the [`LeadingKey`] material, so one
/// block serves every placement with that material whatever its `G_BB`
/// and `D`.
#[derive(Debug)]
struct LeadingBlock {
    /// The nodes off the support, ascending.
    free: Vec<usize>,
    g_aa: Cholesky,
    /// `X = G_AA⁻¹·G_AB`, one column per support node.
    x: Vec<Vec<f64>>,
    /// The stored entries of `G_BA`, row by row: (position in `free`,
    /// value).
    g_ba: Vec<Vec<(usize, f64)>>,
    /// `P = G_BA·X`, `k×k`.
    p: DenseMatrix,
}

/// `G` split along the support: `G_AA` as CSR (the free nodes keep their
/// relative order, so its rows stay sorted) and the stored entries of
/// `G_BA` (one list per support node).
struct Split {
    /// Each node's position in `free` or in the support.
    slot: Vec<usize>,
    g_aa: CsrMatrix,
    g_ba: Vec<Vec<(usize, f64)>>,
}

/// How many leading blocks a [`LeadingBlockCache`] stores. One perfbench
/// explore sweep meets nine distinct keys (the passive network, each
/// mask × contact pair, the greedy placements). A full cache stores
/// nothing more and evicts nothing: a sweep revisits its keys
/// cyclically (thickness-major), so under any eviction order a level
/// with more distinct keys than this would drop each key before its next
/// use, while keeping the first ones lets those (the passive block among
/// them) keep hitting.
const LEADING_BLOCK_CAPACITY: usize = 16;

/// A bounded store of leading blocks shared by the placement factors of
/// one sweep (handed to [`ShiftedCholesky::with_order`]).
///
/// A leading block is what a [`FactorPlan::TrailingBlock`] family computes
/// from `G_AA` and `G_AB` alone: the analysis of `G_AA` on the restricted
/// order, its factor, `X = G_AA⁻¹·G_AB`, the stored `G_BA` and
/// `P = G_BA·X` (for an empty support, `G` factored on the network's
/// pattern). Placements that differ only on the support × support entries
/// of `G` and in `D` — a TEC film of another thickness over the same
/// tiles — share it. An entry is keyed by an FNV-1a digest of its key
/// material: `n`, the support, the elimination order, and the position
/// and bits of every stored entry of `G` with an endpoint off the
/// support. A lookup compares the full material, not just the digest, so
/// a hit is the block a fresh build would compute and a digest collision
/// is only a miss.
///
/// The lock guards lookups and inserts only; blocks are built outside it.
/// Two threads that miss on the same key both build it (with the same
/// bits), and the first insert wins.
#[derive(Default)]
pub struct LeadingBlockCache {
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    /// In insertion order, at most [`LEADING_BLOCK_CAPACITY`].
    entries: Vec<(LeadingKey, Arc<LeadingBlock>)>,
    built: usize,
    reused: usize,
}

/// The key material of a leading block with its digest: the shape (`n`,
/// `k`, the support, the order, and the position `r·n + c` of every
/// stored entry of `G` off the support × support block, row by row) and
/// the bits of those entries. Stored keys of one shape share it.
#[derive(Debug, Clone)]
struct LeadingKey {
    digest: u64,
    shape: Arc<[u64]>,
    values: Vec<u64>,
}

impl LeadingKey {
    fn new(g: &CsrMatrix, support: &[usize], on_support: &[bool], order: &[usize]) -> LeadingKey {
        let n = g.rows();
        let mut shape = Vec::with_capacity(2 + support.len() + n + g.nnz());
        let mut values = Vec::with_capacity(g.nnz());
        shape.push(n as u64);
        shape.push(support.len() as u64);
        shape.extend(support.iter().map(|&b| b as u64));
        shape.extend(order.iter().map(|&v| v as u64));
        for r in 0..n {
            for t in g.row_ptr()[r]..g.row_ptr()[r + 1] {
                let c = g.col_indices()[t];
                if !(on_support[r] && on_support[c]) {
                    shape.push((r * n + c) as u64);
                    values.push(g.values()[t].to_bits());
                }
            }
        }
        // FNV-1a over whole words: one multiply per word keeps the digest
        // a small part of a lookup.
        let digest = shape
            .iter()
            .chain(&values)
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, &w| {
                (h ^ w).wrapping_mul(0x0100_0000_01b3)
            });
        LeadingKey {
            digest,
            shape: shape.into(),
            values,
        }
    }

    fn same_shape(&self, other: &LeadingKey) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape) || self.shape == other.shape
    }
}

impl PartialEq for LeadingKey {
    fn eq(&self, other: &LeadingKey) -> bool {
        self.digest == other.digest && self.same_shape(other) && self.values == other.values
    }
}

impl LeadingBlockCache {
    /// An empty cache.
    pub fn new() -> LeadingBlockCache {
        LeadingBlockCache::default()
    }

    /// Leading blocks built through this cache: every miss that built
    /// one, including the loser of a race on one key.
    pub fn built(&self) -> usize {
        self.lock().built
    }

    /// Lookups answered with a stored block.
    pub fn reused(&self) -> usize {
        self.lock().reused
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &LeadingKey) -> Option<Arc<LeadingBlock>> {
        let mut state = self.lock();
        let hit = state
            .entries
            .iter()
            .find(|(stored, _)| stored == key)
            .map(|(_, lead)| Arc::clone(lead));
        if hit.is_some() {
            state.reused += 1;
        }
        hit
    }

    /// Stores `lead` under `key` unless a racing build stored one first
    /// or the cache is full, and returns the block to build on.
    fn insert(&self, mut key: LeadingKey, mut lead: LeadingBlock) -> Arc<LeadingBlock> {
        let mut state = self.lock();
        state.built += 1;
        if let Some((_, stored)) = state.entries.iter().find(|(stored, _)| *stored == key) {
            return Arc::clone(stored);
        }
        if state.entries.len() == LEADING_BLOCK_CAPACITY {
            return Arc::new(lead);
        }
        // A block of the same shape (another contact of one mask) analysed
        // the same structure in the same order: keep one copy of the shape
        // and of the factor's solve structure between them (≈0.56 MB of a
        // perfbench explore sweep's peak RSS, EXPERIMENTS.md P8).
        if let Some((twin, block)) = state
            .entries
            .iter()
            .find(|(stored, _)| stored.same_shape(&key))
        {
            key.shape = Arc::clone(&twin.shape);
            lead.g_aa.share_solve_structure(&block.g_aa);
        }
        let lead = Arc::new(lead);
        state.entries.push((key, Arc::clone(&lead)));
        lead
    }
}

impl fmt::Debug for LeadingBlockCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.lock();
        f.debug_struct("LeadingBlockCache")
            .field("blocks", &state.entries.len())
            .field("built", &state.built)
            .field("reused", &state.reused)
            .finish()
    }
}

/// The stored block for `key`, if there is a cache and it holds one.
fn lookup(key: &Option<(&LeadingBlockCache, LeadingKey)>) -> Option<Arc<LeadingBlock>> {
    key.as_ref().and_then(|(cache, key)| cache.get(key))
}

/// `lead` stored under `key` when there is a cache.
fn store(key: Option<(&LeadingBlockCache, LeadingKey)>, lead: LeadingBlock) -> Arc<LeadingBlock> {
    match key {
        Some((cache, key)) => cache.insert(key, lead),
        None => Arc::new(lead),
    }
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
    /// the plan rule needs its flop count; here it is ordered by minimum
    /// degree, and [`ShiftedCholesky::with_order`] takes the order from the
    /// caller instead. `network_pattern` must return the analysis of `g`'s
    /// own structure; it is called under [`FactorPlan::Network`] and for an
    /// empty support, where `G_AA` is `g` itself and is factored on that
    /// pattern.
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
        ShiftedCholesky::build(g, d, support, None, None, None, network_pattern)
    }

    /// [`ShiftedCholesky::new`] with `G_AA` analysed on the elimination
    /// order `order` of `g`'s nodes restricted to the nodes off the
    /// support ([`CholeskyPattern::analyse_csr_ordered`]), so a placement
    /// costs no minimum-degree search. The thermal model passes its
    /// package's passive-network order: `G_AA` is an induced subgraph of
    /// the passive network, so eliminating it in that order fills no more
    /// than the passive factor does.
    ///
    /// With a `cache`, the leading block (everything that depends only on
    /// `G_AA` and `G_AB`, see [`LeadingBlockCache`]) is taken from it when
    /// an earlier build stored one for the same key material, and stored
    /// there after a miss. Only the trailing part, `S₀ = G_BB − G_BA·X`,
    /// is computed per call; it is the same arithmetic as a build without
    /// a cache, so the family is bit-identical either way. A placement the
    /// rule sends to [`FactorPlan::Network`] is built as without a cache
    /// and stores nothing.
    ///
    /// # Errors
    ///
    /// As [`ShiftedCholesky::new`], plus [`LinalgError::InvalidInput`] if
    /// `order` is not a permutation of `0..n`.
    pub fn with_order(
        g: &CsrMatrix,
        d: &[f64],
        support: &[usize],
        order: &[usize],
        cache: Option<&LeadingBlockCache>,
        network_pattern: impl FnOnce() -> Result<Arc<CholeskyPattern>, LinalgError>,
    ) -> Result<ShiftedCholesky, LinalgError> {
        ShiftedCholesky::build(g, d, support, None, Some(order), cache, network_pattern)
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
        ShiftedCholesky::build(g, d, support, Some(plan), None, None, network_pattern)
    }

    fn build(
        g: &CsrMatrix,
        d: &[f64],
        support: &[usize],
        plan: Option<FactorPlan>,
        order: Option<&[usize]>,
        cache: Option<&LeadingBlockCache>,
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
        if let Some(order) = order {
            check_permutation(order, n)?;
        }
        let free: Vec<usize> = (0..n).filter(|&k| !on_support[k]).collect();
        let d_support: Vec<f64> = support.iter().map(|&b| d[b]).collect();
        if support.is_empty() && plan != Some(FactorPlan::Network) {
            // A passive placement: G_AA is G, so factor it on the network's
            // own pattern rather than analyse a copy of it. The key names
            // that pattern's order, the one the factor is computed in.
            let pattern = network_pattern()?;
            let key = cache.map(|c| {
                (
                    c,
                    LeadingKey::new(g, &support, &on_support, pattern.permutation()),
                )
            });
            let lead = match lookup(&key) {
                Some(lead) => lead,
                None => store(key, LeadingBlock::passive(g, &pattern, free)?),
            };
            return Ok(ShiftedCholesky::on_block(g, support, d_support, lead));
        }
        let key = cache
            .zip(order)
            .map(|(c, order)| (c, LeadingKey::new(g, &support, &on_support, order)));
        if let Some(lead) = lookup(&key) {
            // Only a block the rule chose is ever stored, so a hit is the
            // rule's plan.
            return Ok(ShiftedCholesky::on_block(g, support, d_support, lead));
        }

        let split = Split::new(g, &support, &on_support, &free);
        let aa_pattern = Arc::new(match order {
            Some(order) => {
                let restricted: Vec<usize> = order
                    .iter()
                    .filter(|&&node| !on_support[node])
                    .map(|&node| split.slot[node])
                    .collect();
                CholeskyPattern::analyse_csr_ordered(&split.g_aa, &restricted)?
            }
            None => CholeskyPattern::analyse_csr(&split.g_aa)?,
        });

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
        if trailing {
            let lead = store(key, LeadingBlock::factor(split, &aa_pattern, free)?);
            return Ok(ShiftedCholesky::on_block(g, support, d_support, lead));
        }
        let pattern = network_pattern()?;
        let lower = pattern.gather(g)?;
        let diag_slots = support
            .iter()
            .map(|&b| pattern.diagonal_position(b))
            .collect();
        Ok(ShiftedCholesky {
            n,
            support,
            d_support,
            family: Family::Network {
                pattern,
                lower,
                diag_slots,
            },
        })
    }

    /// The [`FactorPlan::TrailingBlock`] family over `lead`.
    fn on_block(
        g: &CsrMatrix,
        support: Vec<usize>,
        d_support: Vec<f64>,
        lead: Arc<LeadingBlock>,
    ) -> ShiftedCholesky {
        ShiftedCholesky {
            n: g.rows(),
            family: Family::Block(Arc::new(TrailingBlock::new(lead, g, &support))),
            support,
            d_support,
        }
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
                let rhs: Vec<f64> = blk.lead.free.iter().map(|&a| b[a]).collect();
                let y = blk.lead.g_aa.solve(&rhs)?;
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
                // `g_kk + (−i)·d_k`: the arithmetic of
                // `CsrMatrix::add_scaled_diagonal`, bit for bit.
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

impl Split {
    fn new(g: &CsrMatrix, support: &[usize], on_support: &[bool], free: &[usize]) -> Split {
        let n = g.rows();
        let mut slot = vec![0; n];
        for block in [free, support] {
            for (s, &node) in block.iter().enumerate() {
                slot[node] = s;
            }
        }
        let mut aa_ptr = Vec::with_capacity(free.len() + 1);
        let mut aa_col = Vec::with_capacity(g.nnz());
        let mut aa_val = Vec::with_capacity(g.nnz());
        aa_ptr.push(0);
        let mut g_ba: Vec<Vec<(usize, f64)>> = vec![Vec::new(); support.len()];
        for r in (0..n).filter(|&r| !on_support[r]) {
            for t in g.row_ptr()[r]..g.row_ptr()[r + 1] {
                let (c, v) = (g.col_indices()[t], g.values()[t]);
                if on_support[c] {
                    g_ba[slot[c]].push((slot[r], v));
                } else {
                    aa_col.push(slot[c]);
                    aa_val.push(v);
                }
            }
            aa_ptr.push(aa_col.len());
        }
        let g_aa = CsrMatrix::from_parts(free.len(), free.len(), aa_ptr, aa_col, aa_val);
        Split { slot, g_aa, g_ba }
    }
}

impl LeadingBlock {
    /// The block of an empty support: `G` itself factored on `pattern`.
    fn passive(
        g: &CsrMatrix,
        pattern: &Arc<CholeskyPattern>,
        free: Vec<usize>,
    ) -> Result<LeadingBlock, LinalgError> {
        Ok(LeadingBlock {
            free,
            g_aa: Cholesky::factor_csr_with(pattern, g)?,
            x: Vec::new(),
            g_ba: Vec::new(),
            p: DenseMatrix::zeros(0, 0),
        })
    }

    /// `G_AA` factored on `aa_pattern`, `X = G_AA⁻¹·G_AB` and `P = G_BA·X`.
    fn factor(
        split: Split,
        aa_pattern: &Arc<CholeskyPattern>,
        free: Vec<usize>,
    ) -> Result<LeadingBlock, LinalgError> {
        let g_aa = Cholesky::factor_csr_with(aa_pattern, &split.g_aa).map_err(|e| match e {
            LinalgError::NotPositiveDefinite { pivot } => {
                LinalgError::NotPositiveDefinite { pivot: free[pivot] }
            }
            other => other,
        })?;
        let g_ab: Vec<Vec<f64>> = split
            .g_ba
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
        // P = G_BA·X over the stored entries only, in ascending order: the
        // skipped terms are exact zeros.
        let k = split.g_ba.len();
        let mut p = DenseMatrix::zeros(k, k);
        for (r, g_ba_r) in split.g_ba.iter().enumerate() {
            for (c, x_c) in x.iter().enumerate() {
                p[(r, c)] = g_ba_r.iter().map(|&(a, u)| u * x_c[a]).sum::<f64>();
            }
        }
        Ok(LeadingBlock {
            free,
            g_aa: g_aa.into_solve_only(),
            x,
            g_ba: split.g_ba,
            p,
        })
    }
}

impl TrailingBlock {
    /// `S₀ = G_BB − P` over `lead`, entry by entry: the stored entries of
    /// `G_BB` (zero elsewhere), then `P` subtracted.
    fn new(lead: Arc<LeadingBlock>, g: &CsrMatrix, support: &[usize]) -> TrailingBlock {
        let k = support.len();
        let mut s0 = DenseMatrix::zeros(k, k);
        for (r, &node) in support.iter().enumerate() {
            for t in g.row_ptr()[node]..g.row_ptr()[node + 1] {
                if let Ok(c) = support.binary_search(&g.col_indices()[t]) {
                    s0[(r, c)] = g.values()[t];
                }
            }
        }
        for r in 0..k {
            for c in 0..k {
                s0[(r, c)] -= lead.p[(r, c)];
            }
        }
        TrailingBlock { lead, s0 }
    }

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
            .zip(&self.lead.g_ba)
            .map(|(&node, row)| b[node] - row.iter().map(|&(a, u)| u * y[a]).sum::<f64>())
            .collect();
        let theta_b = s.solve(&rhs_b)?;
        let mut theta_a = y.to_vec();
        for (x_c, &t) in self.lead.x.iter().zip(&theta_b) {
            for (v, &x) in theta_a.iter_mut().zip(x_c) {
                *v -= x * t;
            }
        }
        let mut theta = vec![0.0; b.len()];
        for (&a, v) in self.lead.free.iter().zip(theta_a) {
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
                let same = lead.rhs.len() == block.lead.free.len()
                    && block
                        .lead
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
                    .map(|b| block.lead.free.iter().map(|&a| b[a]).collect())
                    .collect();
                let ys = block.lead.g_aa.solve_many(&cols_a)?;
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
                    .lead
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
        assert!(Arc::ptr_eq(blk.lead.g_aa.pattern(), &pattern));
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

    fn on_support(n: usize, support: &[usize]) -> Vec<bool> {
        let mut on = vec![false; n];
        for &b in support {
            on[b] = true;
        }
        on
    }

    #[test]
    fn a_digest_collision_is_a_miss() {
        let g = chain(12);
        let mut dense = g.to_dense();
        dense[(0, 0)] = 3.0;
        let h = CsrMatrix::from_dense(&dense);
        let order: Vec<usize> = (0..12).collect();
        let support = on_support(12, &[4]);
        let key = LeadingKey::new(&g, &[4], &support, &order);
        let mut forged = LeadingKey::new(&h, &[4], &support, &order);
        assert_ne!(forged.values, key.values);
        forged.digest = key.digest;

        // A block of h stored under g's digest is not g's block.
        let cache = LeadingBlockCache::new();
        let pattern = Arc::new(CholeskyPattern::analyse_csr(&h).unwrap());
        let lead = LeadingBlock::passive(&h, &pattern, (0..12).collect()).unwrap();
        cache.insert(forged.clone(), lead);
        assert!(cache.get(&key).is_none());
        assert!(cache.get(&forged).is_some());
        assert_eq!((cache.built(), cache.reused()), (1, 1));

        // So a build of g through that cache misses, stores its own block
        // and matches an uncached build.
        let mut d = vec![0.0; 12];
        d[4] = 1.0;
        let cached = Arc::new(
            ShiftedCholesky::with_order(&g, &d, &[4], &order, Some(&cache), analyse(&g)).unwrap(),
        );
        assert_eq!((cache.built(), cache.reused()), (2, 1));
        let fresh =
            Arc::new(ShiftedCholesky::with_order(&g, &d, &[4], &order, None, analyse(&g)).unwrap());
        let b: Vec<f64> = (0..12).map(|k| 1.0 + k as f64).collect();
        assert_eq!(
            cached.factor_at(0.5).unwrap().solve(&b).unwrap(),
            fresh.factor_at(0.5).unwrap().solve(&b).unwrap()
        );
    }

    #[test]
    fn a_full_cache_stores_nothing_more() {
        let cache = LeadingBlockCache::new();
        let g = chain(6);
        let pattern = Arc::new(CholeskyPattern::analyse_csr(&g).unwrap());
        let keys: Vec<LeadingKey> = (0..=LEADING_BLOCK_CAPACITY)
            .map(|shift| {
                let order: Vec<usize> = (0..6).map(|k| (k + shift) % 6).collect();
                let mut key = LeadingKey::new(&g, &[], &[false; 6], &order);
                key.values.push(shift as u64);
                key
            })
            .collect();
        for key in &keys {
            let lead = LeadingBlock::passive(&g, &pattern, (0..6).collect()).unwrap();
            cache.insert(key.clone(), lead);
        }
        // The first blocks stay; the one past the bound was never stored.
        let (stored, last) = keys.split_at(LEADING_BLOCK_CAPACITY);
        assert!(stored.iter().all(|key| cache.get(key).is_some()));
        assert!(cache.get(&last[0]).is_none());
        assert_eq!(cache.lock().entries.len(), LEADING_BLOCK_CAPACITY);
        assert_eq!(
            (cache.built(), cache.reused()),
            (LEADING_BLOCK_CAPACITY + 1, LEADING_BLOCK_CAPACITY)
        );
    }

    #[test]
    fn a_racing_insert_keeps_the_first_block() {
        let cache = LeadingBlockCache::new();
        let g = chain(6);
        let pattern = Arc::new(CholeskyPattern::analyse_csr(&g).unwrap());
        let order: Vec<usize> = (0..6).collect();
        let key = LeadingKey::new(&g, &[], &[false; 6], &order);
        let build = || LeadingBlock::passive(&g, &pattern, (0..6).collect()).unwrap();
        let first = cache.insert(key.clone(), build());
        let second = cache.insert(key.clone(), build());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.built(), cache.reused()), (2, 0));
    }
}
