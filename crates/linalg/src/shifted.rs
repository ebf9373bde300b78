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
//! so `G_AA` is factored once, `X` and `S₀` are formed once, and each
//! shift refactors only the dense `k×k` trailing block. `y_A` does not
//! depend on the shift; [`ShiftedCholesky::leading_solve`] hands it out
//! for callers that solve one right-hand side at many shifts.
//!
//! `G_AA` needs no analysis of its own when it is an induced subgraph of
//! a network already analysed ([`ShiftedCholesky::with_package_pattern`]):
//! every placement of the thermal model is one of its package's passive
//! network, with each spliced tile's TIM node taken out. Its values are
//! placed into that network's lower-triangle layout through a node map;
//! each pattern node no free node maps to becomes a decoupled identity
//! row, and every pattern entry `G_AA` lacks is stored as zero. The
//! up-looking factor keeps those zeros exact: an identity row's column
//! of `A` is zero, so its entries of `L` are `0 / L_jj` and every update
//! through them subtracts a zero. The factor restricted to the free nodes
//! is then a Cholesky factor of `G_AA` in the package order, equal to the
//! factor on `G_AA`'s own restricted-order analysis
//! ([`ShiftedCholesky::with_order`], kept as the oracle) to rounding. A
//! placement then runs no symbolic analysis and owns no pattern.
//!
//! The trailing block costs `k³/3` flops per shift, a numeric factor of
//! the whole network about as much as one of `G_AA`. [`FactorPlan`]
//! records which the family took: the trailing block when `k³/3` is at
//! most the flop count of the numeric factor of `G_AA` on the pattern it
//! is factored on ([`CholeskyPattern::factor_flops`]), otherwise a sparse
//! numeric factor of all of `G − i·D` on the network's pattern (at full
//! cover, `k = 288` on a 12×12 package, a dense block would cost 60× a
//! network factor).
//!
//! A build is two parts: the leading block, which depends on `G_AA` and
//! `G_AB` alone (the factor of `G_AA`, `X`, `G_BA` and `P = G_BA·X`), and
//! the trailing part `S₀ = G_BB − P`. Placements that differ only on the
//! support × support entries of `G` and in `D` — the film thicknesses of
//! one mask in a design sweep — share the leading block through a
//! [`LeadingBlockCache`]; a family built on a shared block is
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
    /// The pattern node each free node is factored at (`free` order).
    at: Vec<usize>,
    /// `G_AA` factored on a pattern that covers it; pattern nodes no free
    /// node maps to are decoupled identity rows.
    g_aa: Cholesky,
    /// The least and greatest pivot of `G_AA`'s own rows.
    pivots: (f64, f64),
    /// `X = G_AA⁻¹·G_AB`, one column per support node.
    x: Vec<Vec<f64>>,
    /// The stored entries of `G_BA`, row by row: (position in `free`,
    /// value).
    g_ba: Vec<Vec<(usize, f64)>>,
    /// `P = G_BA·X`, `k×k`.
    p: DenseMatrix,
}

/// Where a build factors `G_AA`.
#[derive(Clone, Copy)]
enum LeadingPattern<'a> {
    /// An analysis of `G_AA`'s own structure: on the restriction of the
    /// given order of `g`'s nodes, or by minimum degree.
    Own(Option<&'a [usize]>),
    /// A pattern that covers `G_AA` through `nodes` (free node → pattern
    /// node).
    Package {
        pattern: &'a Arc<CholeskyPattern>,
        nodes: &'a [usize],
    },
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
/// one sweep (handed to [`ShiftedCholesky::with_package_pattern`] or
/// [`ShiftedCholesky::with_order`]).
///
/// A leading block is what a [`FactorPlan::TrailingBlock`] family computes
/// from `G_AA` and `G_AB` alone: the factor of `G_AA`, `X = G_AA⁻¹·G_AB`,
/// the stored `G_BA` and `P = G_BA·X` (for an empty support, `G` factored
/// on the network's pattern). Placements that differ only on the support
/// × support entries of `G` and in `D` — a TEC film of another thickness
/// over the same tiles — share it. An entry is keyed by an FNV-1a digest
/// of its key material: `n`, the support, the elimination order or node
/// map, and the position and bits of every stored entry of `G` with an
/// endpoint off the support; a block factored on a caller's pattern is
/// keyed by that pattern too (the same `Arc`). A lookup compares the full
/// material, not just the digest, so a hit is the block a fresh build
/// would compute and a digest collision is only a miss.
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
/// `k`, the support, the order or node map, and the position `r·n + c`
/// of every stored entry of `G` off the support × support block, row by
/// row), the bits of those entries, and the pattern `G_AA` is factored
/// on when a caller supplies it (compared by pointer: the key holds it,
/// so its address is never reused while the entry lives).
#[derive(Debug, Clone)]
struct LeadingKey {
    digest: u64,
    shape: Vec<u64>,
    values: Vec<u64>,
    pattern: Option<Arc<CholeskyPattern>>,
}

impl LeadingKey {
    fn new(g: &CsrMatrix, support: &[usize], on_support: &[bool], layout: &[usize]) -> LeadingKey {
        let n = g.rows();
        let mut shape = Vec::with_capacity(2 + support.len() + n + g.nnz());
        let mut values = Vec::with_capacity(g.nnz());
        shape.push(n as u64);
        shape.push(support.len() as u64);
        shape.extend(support.iter().map(|&b| b as u64));
        shape.extend(layout.iter().map(|&v| v as u64));
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
            shape,
            values,
            pattern: None,
        }
    }
}

impl PartialEq for LeadingKey {
    fn eq(&self, other: &LeadingKey) -> bool {
        let same_pattern = match (&self.pattern, &other.pattern) {
            (Some(p), Some(q)) => Arc::ptr_eq(p, q),
            (None, None) => true,
            _ => false,
        };
        self.digest == other.digest
            && same_pattern
            && self.shape == other.shape
            && self.values == other.values
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
    fn insert(&self, key: LeadingKey, lead: LeadingBlock) -> Arc<LeadingBlock> {
        let mut state = self.lock();
        state.built += 1;
        if let Some((_, stored)) = state.entries.iter().find(|(stored, _)| *stored == key) {
            return Arc::clone(stored);
        }
        let lead = Arc::new(lead);
        if state.entries.len() < LEADING_BLOCK_CAPACITY {
            state.entries.push((key, Arc::clone(&lead)));
        }
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
    /// degree. `network_pattern` must return the analysis of `g`'s own
    /// structure; it is called under [`FactorPlan::Network`] and for an
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
        let own = LeadingPattern::Own(None);
        ShiftedCholesky::build(g, d, support, None, own, None, network_pattern)
    }

    /// [`ShiftedCholesky::new`] with `G_AA` factored on `pattern`, an
    /// analysis of a larger network that holds `G_AA` as an induced
    /// subgraph: no analysis of `G_AA` runs. `nodes[a]` is the pattern
    /// node of free node `a` (the entries of support nodes are not read);
    /// distinct free nodes must map to distinct pattern nodes, and every
    /// stored entry of `G_AA` must land on an entry `pattern` covers. The
    /// thermal model passes its package's passive-network pattern and the
    /// map of its nodes into the passive network. Pattern nodes no free
    /// node maps to factor as decoupled identity rows (see the module
    /// docs), and the plan rule weighs `k³/3` against `pattern`'s
    /// [`CholeskyPattern::factor_flops`], the cost of the factor it runs.
    ///
    /// `G_AA` is read through the entries whose images lie in `pattern`'s
    /// lower triangle (and the diagonal), so `g` must be symmetric, as
    /// everywhere in this module. With a `cache`, the leading block is
    /// taken from it when an earlier build stored one for the same key
    /// material (`pattern` included, by pointer), and stored there after a
    /// miss; the family is bit-identical either way. A placement the rule
    /// sends to [`FactorPlan::Network`] stores nothing.
    ///
    /// # Errors
    ///
    /// As [`ShiftedCholesky::new`], plus [`LinalgError::InvalidInput`] if
    /// `nodes` does not have one entry per node, maps a free node outside
    /// `pattern` or two free nodes to one pattern node, or a stored entry
    /// of `G_AA` lies outside `pattern` (it is never dropped).
    pub fn with_package_pattern(
        g: &CsrMatrix,
        d: &[f64],
        support: &[usize],
        pattern: &Arc<CholeskyPattern>,
        nodes: &[usize],
        cache: Option<&LeadingBlockCache>,
        network_pattern: impl FnOnce() -> Result<Arc<CholeskyPattern>, LinalgError>,
    ) -> Result<ShiftedCholesky, LinalgError> {
        let package = LeadingPattern::Package { pattern, nodes };
        ShiftedCholesky::build(g, d, support, None, package, cache, network_pattern)
    }

    /// [`ShiftedCholesky::new`] with `G_AA` analysed on the elimination
    /// order `order` of `g`'s nodes restricted to the nodes off the
    /// support ([`CholeskyPattern::analyse_csr_ordered`]): the exact
    /// pattern of `G_AA` in that order. The oracle of
    /// [`ShiftedCholesky::with_package_pattern`], which eliminates `G_AA`
    /// in the same order on a superset of this pattern. The cache works as
    /// there, keyed by `order` instead of a pattern.
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
        let own = LeadingPattern::Own(Some(order));
        ShiftedCholesky::build(g, d, support, None, own, cache, network_pattern)
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
        let own = LeadingPattern::Own(None);
        ShiftedCholesky::build(g, d, support, Some(plan), own, None, network_pattern)
    }

    fn build(
        g: &CsrMatrix,
        d: &[f64],
        support: &[usize],
        plan: Option<FactorPlan>,
        leading: LeadingPattern<'_>,
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
        match leading {
            LeadingPattern::Own(Some(order)) => check_permutation(order, n)?,
            LeadingPattern::Package { nodes, .. } if nodes.len() != n => {
                return Err(LinalgError::InvalidInput(format!(
                    "a node map of {} entries for n = {n}",
                    nodes.len()
                )));
            }
            _ => {}
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
        let key = match leading {
            LeadingPattern::Own(None) => None,
            LeadingPattern::Own(Some(order)) => {
                cache.map(|c| (c, LeadingKey::new(g, &support, &on_support, order)))
            }
            LeadingPattern::Package { pattern, nodes } => cache.map(|c| {
                let mut key = LeadingKey::new(g, &support, &on_support, nodes);
                key.pattern = Some(Arc::clone(pattern));
                (c, key)
            }),
        };
        if let Some(lead) = lookup(&key) {
            // Only a block the rule chose is ever stored, so a hit is the
            // rule's plan.
            return Ok(ShiftedCholesky::on_block(g, support, d_support, lead));
        }

        let (aa_pattern, at) = match leading {
            LeadingPattern::Own(order) => {
                let pattern = own_pattern(g, &on_support, &free, order)?;
                (Arc::new(pattern), (0..free.len()).collect())
            }
            LeadingPattern::Package { pattern, nodes } => (
                Arc::clone(pattern),
                free.iter().map(|&a| nodes[a]).collect(),
            ),
        };
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
            let lead = LeadingBlock::factor(g, &support, &on_support, free, aa_pattern, at)?;
            let lead = store(key, lead);
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

    /// The pattern `G_AA` is factored on, under
    /// [`FactorPlan::TrailingBlock`]: the caller's under
    /// [`ShiftedCholesky::with_package_pattern`], the network's for an
    /// empty support, otherwise an analysis of `G_AA`'s own.
    pub fn leading_pattern(&self) -> Option<&Arc<CholeskyPattern>> {
        match &self.family {
            Family::Block(blk) => Some(blk.lead.g_aa.pattern()),
            Family::Network { .. } => None,
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
        self.is_pd_with(|_| i)
    }

    /// The factorization of `G − i·D`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] past the runaway limit, naming
    /// the node whose pivot failed.
    pub fn factor_at(self: &Arc<Self>, i: f64) -> Result<ShiftedFactor, LinalgError> {
        self.factor_with(|_| i)
    }

    /// The factorization of `G − Σ_r currents[r]·d_r·e_r·e_rᵀ`: one current
    /// per node of [`ShiftedCholesky::support`], in its order, so devices
    /// behind different supply pins shift by their own currents.
    /// [`ShiftedCholesky::factor_at`] is the case of equal currents, bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] unless there is one current
    ///   per support node.
    /// - [`LinalgError::NotPositiveDefinite`] outside the positive-definite
    ///   region, naming the node whose pivot failed.
    pub fn factor_at_each(
        self: &Arc<Self>,
        currents: &[f64],
    ) -> Result<ShiftedFactor, LinalgError> {
        check_dim(self.support.len(), currents)?;
        self.factor_with(|r| currents[r])
    }

    /// The declared support of `D`, ascending: the nodes
    /// [`ShiftedCholesky::factor_at_each`] takes a current for.
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    fn factor_with(
        self: &Arc<Self>,
        current: impl Fn(usize) -> f64,
    ) -> Result<ShiftedFactor, LinalgError> {
        Ok(ShiftedFactor {
            family: Arc::clone(self),
            factor: self.per_shift(current)?,
        })
    }

    /// [`ShiftedCholesky::is_pd_at`] with support node `r` shifted by
    /// `current(r)`.
    pub(crate) fn is_pd_with(&self, current: impl Fn(usize) -> f64) -> Result<bool, LinalgError> {
        match self.per_shift(current) {
            Ok(_) => Ok(true),
            Err(LinalgError::NotPositiveDefinite { .. }) => Ok(false),
            Err(e) => Err(e),
        }
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
                let y = blk.lead.solve(&rhs)?;
                Ok(LeadingSolve { rhs, y })
            }
            Family::Network { .. } => Ok(LeadingSolve {
                rhs: Vec::new(),
                y: Vec::new(),
            }),
        }
    }

    /// The factor with support node `r` (in `support` order) shifted by
    /// `current(r)`.
    fn per_shift(&self, current: impl Fn(usize) -> f64) -> Result<PerShift, LinalgError> {
        match &self.family {
            Family::Block(blk) => {
                let mut s = blk.s0.clone();
                for (r, &d_r) in self.d_support.iter().enumerate() {
                    s[(r, r)] += -current(r) * d_r;
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
                for (r, (&slot, &d_r)) in diag_slots.iter().zip(&self.d_support).enumerate() {
                    m[slot] += -current(r) * d_r;
                }
                Cholesky::numeric(Arc::clone(pattern), &m).map(PerShift::Network)
            }
        }
    }

    fn check_len(&self, b: &[f64]) -> Result<(), LinalgError> {
        check_dim(self.n, b)
    }
}

/// A [`LinalgError::DimensionMismatch`] unless `v` has `expected` entries.
pub(crate) fn check_dim(expected: usize, v: &[f64]) -> Result<(), LinalgError> {
    if v.len() != expected {
        return Err(LinalgError::DimensionMismatch {
            expected,
            actual: v.len(),
        });
    }
    Ok(())
}

/// The analysis of `G_AA`'s own structure (its CSR, the free nodes in
/// ascending order), on `order` restricted to the free nodes or by
/// minimum degree.
fn own_pattern(
    g: &CsrMatrix,
    on_support: &[bool],
    free: &[usize],
    order: Option<&[usize]>,
) -> Result<CholeskyPattern, LinalgError> {
    let mut slot = vec![0; g.rows()];
    for (s, &node) in free.iter().enumerate() {
        slot[node] = s;
    }
    let mut aa_ptr = Vec::with_capacity(free.len() + 1);
    let mut aa_col = Vec::with_capacity(g.nnz());
    aa_ptr.push(0);
    for &r in free {
        let row = &g.col_indices()[g.row_ptr()[r]..g.row_ptr()[r + 1]];
        aa_col.extend(row.iter().filter(|&&c| !on_support[c]).map(|&c| slot[c]));
        aa_ptr.push(aa_col.len());
    }
    let values = vec![0.0; aa_col.len()];
    let g_aa = CsrMatrix::from_parts(free.len(), free.len(), aa_ptr, aa_col, values);
    match order {
        Some(order) => {
            let restricted: Vec<usize> = order
                .iter()
                .filter(|&&node| !on_support[node])
                .map(|&node| slot[node])
                .collect();
            CholeskyPattern::analyse_csr_ordered(&g_aa, &restricted)
        }
        None => CholeskyPattern::analyse_csr(&g_aa),
    }
}

impl LeadingBlock {
    /// The block of an empty support: `G` itself factored on `pattern`.
    fn passive(
        g: &CsrMatrix,
        pattern: &Arc<CholeskyPattern>,
        free: Vec<usize>,
    ) -> Result<LeadingBlock, LinalgError> {
        let g_aa = Cholesky::factor_csr_with(pattern, g)?;
        Ok(LeadingBlock {
            at: (0..free.len()).collect(),
            pivots: pivot_range(g_aa.pivots()),
            free,
            g_aa,
            x: Vec::new(),
            g_ba: Vec::new(),
            p: DenseMatrix::zeros(0, 0),
        })
    }

    /// `G_AA` placed into `pattern`'s lower layout (free node `free[a]` at
    /// pattern node `at[a]`, every other pattern node an identity row) and
    /// factored, `X = G_AA⁻¹·G_AB` and `P = G_BA·X`. One pass over the
    /// rows of `g` writes `G_AA` and collects `G_BA`.
    fn factor(
        g: &CsrMatrix,
        support: &[usize],
        on_support: &[bool],
        free: Vec<usize>,
        pattern: Arc<CholeskyPattern>,
        at: Vec<usize>,
    ) -> Result<LeadingBlock, LinalgError> {
        let m = pattern.dim();
        let mut covered = vec![false; m];
        for (&a, &node) in free.iter().zip(&at) {
            if node >= m || std::mem::replace(&mut covered[node], true) {
                return Err(LinalgError::InvalidInput(format!(
                    "free node {a} maps to pattern node {node}, out of bounds for a pattern of \
                     {m} nodes or taken by another free node"
                )));
            }
        }
        let mut lower = vec![0.0; pattern.lower_len()];
        for node in (0..m).filter(|&node| !covered[node]) {
            lower[pattern.diagonal_position(node)] = 1.0;
        }
        let mut slot = vec![0; g.rows()];
        for (s, &node) in support.iter().enumerate() {
            slot[node] = s;
        }
        for (s, &node) in free.iter().enumerate() {
            slot[node] = s;
        }
        let mut g_ba: Vec<Vec<(usize, f64)>> = vec![Vec::new(); support.len()];
        for (a, &r) in free.iter().enumerate() {
            let row = at[a];
            for t in g.row_ptr()[r]..g.row_ptr()[r + 1] {
                let (c, v) = (g.col_indices()[t], g.values()[t]);
                if on_support[c] {
                    g_ba[slot[c]].push((a, v));
                    continue;
                }
                let col = at[slot[c]];
                if col == row {
                    lower[pattern.diagonal_position(row)] = v;
                } else if col < row {
                    let q = pattern.lower_position(row, col).ok_or_else(|| {
                        LinalgError::InvalidInput(format!(
                            "G_AA entry ({r}, {c}) lies outside the pattern it is factored on"
                        ))
                    })?;
                    lower[q] = v;
                }
            }
        }
        let g_aa = Cholesky::numeric(pattern, &lower).map_err(|e| match e {
            // Only a free node can fail: an identity row's pivot is 1.
            LinalgError::NotPositiveDefinite { pivot } => LinalgError::NotPositiveDefinite {
                pivot: at
                    .iter()
                    .position(|&node| node == pivot)
                    .map_or(pivot, |a| free[a]),
            },
            other => other,
        })?;
        let pivots = pivot_range(
            g_aa.pivots()
                .zip(g_aa.pattern().permutation())
                .filter(|&(_, &node)| covered[node])
                .map(|(p, _)| p),
        );
        let g_ab: Vec<Vec<f64>> = g_ba
            .iter()
            .map(|stored| {
                let mut col = vec![0.0; m];
                for &(a, v) in stored {
                    col[at[a]] = v;
                }
                col
            })
            .collect();
        let x: Vec<Vec<f64>> = g_aa
            .solve_many(&g_ab)?
            .iter()
            .map(|col| at.iter().map(|&node| col[node]).collect())
            .collect();
        // P = G_BA·X over the stored entries only, in ascending order: the
        // skipped terms are exact zeros.
        let k = g_ba.len();
        let mut p = DenseMatrix::zeros(k, k);
        for (r, g_ba_r) in g_ba.iter().enumerate() {
            for (c, x_c) in x.iter().enumerate() {
                p[(r, c)] = g_ba_r.iter().map(|&(a, u)| u * x_c[a]).sum::<f64>();
            }
        }
        Ok(LeadingBlock {
            free,
            at,
            g_aa,
            pivots,
            x,
            g_ba,
            p,
        })
    }

    /// `G_AA⁻¹·b` for a right-hand side `b` in `free` order: placed at the
    /// pattern nodes (zero on the identity rows, whose solution is zero),
    /// solved, and read back.
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let y = self.g_aa.solve(&self.place(b))?;
        Ok(self.at.iter().map(|&node| y[node]).collect())
    }

    /// `b`, in `free` order, at the pattern nodes of the free nodes.
    fn place(&self, b: &[f64]) -> Vec<f64> {
        let mut placed = vec![0.0; self.g_aa.dim()];
        for (&node, &v) in self.at.iter().zip(b) {
            placed[node] = v;
        }
        placed
    }

    /// [`LeadingBlock::solve`] for many right-hand sides in one blocked
    /// pass ([`Cholesky::solve_many`]).
    fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let placed: Vec<Vec<f64>> = rhs.iter().map(|b| self.place(b)).collect();
        Ok(self
            .g_aa
            .solve_many(&placed)?
            .iter()
            .map(|col| self.at.iter().map(|&node| col[node]).collect())
            .collect())
    }
}

/// The least and greatest of `pivots` (`(∞, −∞)` for none).
fn pivot_range(pivots: impl Iterator<Item = f64>) -> (f64, f64) {
    pivots.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
        (lo.min(p), hi.max(p))
    })
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
                let ys = block.lead.solve_many(&cols_a)?;
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
    /// pivots are those of `G_AA`'s rows of `L` and of the `k×k` block,
    /// which together are the pivots of a Cholesky factor with the support
    /// ordered last (the identity rows of a package pattern are not
    /// `G_AA`'s and do not count).
    pub fn condition_estimate(&self) -> f64 {
        match &self.factor {
            PerShift::Block { block, s } => {
                let l = s.l();
                let (lo, hi) = (0..l.rows())
                    .map(|r| l[(r, r)])
                    .fold(block.lead.pivots, |(lo, hi), p| (lo.min(p), hi.max(p)));
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

    #[test]
    fn per_node_currents_generalize_the_uniform_shift() {
        let g = chain(12);
        let mut d = vec![0.0; 12];
        d[3] = 1.0;
        d[4] = -1.0;
        d[8] = 1.0;
        let fam = Arc::new(ShiftedCholesky::new(&g, &d, &[8, 3, 4], analyse(&g)).unwrap());
        assert_eq!(fam.support(), [3, 4, 8]);
        let b: Vec<f64> = (0..12).map(|k| 1.0 + k as f64).collect();
        // Equal currents are `factor_at`, bit for bit.
        assert_eq!(
            fam.factor_at_each(&[0.7; 3]).unwrap().solve(&b).unwrap(),
            fam.factor_at(0.7).unwrap().solve(&b).unwrap()
        );
        // Unequal currents shift each node by its own.
        let currents = [0.2, 0.9, 1.3];
        let mut dense = g.to_dense();
        for (&node, i) in fam.support().iter().zip(currents) {
            dense[(node, node)] -= i * d[node];
        }
        let oracle = DenseCholesky::factor(&dense).unwrap().solve(&b).unwrap();
        let x = fam.factor_at_each(&currents).unwrap().solve(&b).unwrap();
        for (p, q) in x.iter().zip(&oracle) {
            assert!((p - q).abs() < 1e-12, "{p} vs {q}");
        }
        assert_eq!(
            fam.factor_at_each(&[0.1, 0.2]).unwrap_err(),
            LinalgError::DimensionMismatch {
                expected: 3,
                actual: 2
            }
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
