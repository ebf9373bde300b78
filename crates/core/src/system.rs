use crate::OptError;
use std::sync::{Arc, OnceLock};
use tecopt_device::{StampedSystem, TecParams};
use tecopt_linalg::{
    CancelToken, Cholesky, DiagonalUpdate, FactorPlan, FactoredSystem, LeadingBlockCache,
    LeadingSolve, LinalgError, ResolvedBackend, SolveMethod, SolverBackend, UpdatableFactor,
    WARN_CONDITION,
};
use tecopt_thermal::{PackageConfig, TileIndex};
use tecopt_units::{Amperes, Celsius, Kelvin, Watts};

/// A chip package with a TEC deployment and a worst-case power profile —
/// everything Eq. 4 needs: `(G − i·D)·θ = p(i)`.
///
/// The single supply current reflects the paper's one-extra-pin constraint:
/// all deployed devices are electrically in series and share `i`.
///
/// A system holds no solver state of its own: every steady solve runs
/// through a [`SteadySolver`] handle ([`CoolingSystem::solver`]), and
/// [`CoolingSystem::solve`] builds one per call. Clones share the
/// placement factor and the leading solve `y_A`.
///
/// ```
/// use tecopt::CoolingSystem;
/// use tecopt_device::TecParams;
/// use tecopt_thermal::{PackageConfig, TileIndex};
/// use tecopt_units::{Amperes, Watts};
///
/// # fn main() -> Result<(), tecopt::OptError> {
/// let config = PackageConfig::hotspot41_like(4, 4)?;
/// let mut powers = vec![Watts(0.05); 16];
/// powers[5] = Watts(0.7);
/// let system = CoolingSystem::new(
///     &config,
///     TecParams::superlattice_thin_film(),
///     &[TileIndex::new(1, 1)],
///     powers,
/// )?;
/// let cooled = system.solve(Amperes(3.0))?;
/// let uncooled = system.solve(Amperes(0.0))?;
/// assert!(cooled.peak() < uncooled.peak());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoolingSystem {
    stamped: StampedSystem,
    tile_powers: Vec<Watts>,
    backend: SolverBackend,
    /// `y_A = G_AA⁻¹·p_A` of the placement factor for this power profile,
    /// solved by the first handle that needs it and shared by every
    /// handle and clone of this placement and profile. A new profile or a
    /// new placement slot starts an empty one.
    leading: LeadingSlot,
}

/// The slot of a placement's leading solve for one power profile.
type LeadingSlot = Arc<OnceLock<LeadingSolve>>;

/// How a solver obtains the factorization of `G − i·D` when the probe
/// current changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FactorStrategy {
    /// Factor afresh at every new current — the reference path (and the
    /// equivalence oracle for the update path). This is the default and
    /// the strategy of [`CoolingSystem::solve`]. On
    /// the default backend "afresh" means the placement's
    /// [`StampedSystem::placement_factor`]: `G_AA` is factored once per
    /// placement and a new current refactors only the `k×k` trailing block
    /// on the TEC terminal nodes (or, when `k` is too large for that to
    /// pay, the whole network on its sparse pattern; see
    /// [`CoolingSystem::factor_plan`]).
    #[default]
    Refactor,
    /// Apply a rank-k Sherman–Morrison–Woodbury diagonal update over one
    /// cached factorization of the placement's `i = 0` matrix instead of
    /// refactoring, falling back to a fresh factorization automatically when
    /// the update's condition estimate degrades (DESIGN.md §15). Opt-in via
    /// [`SteadySolver::with_strategy`]: results agree with
    /// [`FactorStrategy::Refactor`] to ~1e-12 relative, not bit for bit.
    /// It applies on the default sparse Cholesky backend. On the CG backend
    /// it is a no-op — CG takes the CSR matrix `G − i·D` as it is, with no
    /// factorization to update — and the dense oracle backend always
    /// refactors.
    RankKUpdate,
}

/// Condition-estimate ceiling above which an applied rank-k update is
/// discarded and the matrix refactored from scratch. The estimate is the
/// product of the base factor's pivot ratio and the capacitance LDLᵀ's
/// pivot ratio — a cheap upper-bound heuristic for how much the SMW
/// correction can amplify rounding. See DESIGN.md §15 for the policy.
const UPDATE_CONDITION_LIMIT: f64 = 1.0e12;

/// Cache key of the last factorization held by a [`SteadySolver`].
///
/// The current alone is NOT a sound key: two factorizations at the same
/// current can represent the same matrix in different ways (a fresh
/// Cholesky factor vs an SMW-updated one, which agree only to rounding),
/// and the PR-2 cache-poisoning regression showed how a stale hit turns
/// into silently wrong temperatures. The key therefore pairs the exact
/// current bits with the strategy that produced the factor, so the two
/// representations can never share a slot. A handle borrows its system,
/// so its placement and power profile cannot change under it, and nothing
/// else can tell two of its factors apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    current_bits: u64,
    strategy: FactorStrategy,
}

/// One steady-state solve, before the user-facing state is derived.
#[derive(Debug)]
struct RawSolve {
    theta: Vec<f64>,
    condition_estimate: f64,
    method: SolveMethod,
}

/// The placement factor at `current`: `G − i·D` factored through
/// [`StampedSystem::placement_factor`].
fn factor_placement(stamped: &StampedSystem, current: Amperes) -> Result<FactoredSystem, OptError> {
    stamped
        .placement_factor()?
        .factor_at(current.value())
        .map(FactoredSystem::Shifted)
        .map_err(|e| runaway_from(current, e))
}

fn runaway_from(current: Amperes, e: LinalgError) -> OptError {
    match e {
        LinalgError::NotPositiveDefinite { .. } => OptError::BeyondRunaway {
            current: current.value(),
        },
        other => OptError::Linalg(other),
    }
}

/// The solver state over one [`CoolingSystem`], and the only one: `p(i)`
/// retargeted in place from `p(0)`, and the last factorization keyed by
/// its current, so repeated solves at one operating point (e.g. the two
/// extra right-hand sides of a gradient evaluation) factor only once.
///
/// [`CoolingSystem::solve`] builds a handle per call; line searches,
/// sweeps and served requests keep one for many probes, and the parallel
/// sweeps give every worker a clone. Default-backend factors come from the
/// placement's [`StampedSystem::placement_factor`], which every handle of
/// the placement shares, so a fresh handle never re-analyses or refactors
/// `G_AA`, and it reads the system's shared `y_A`. The other backends build
/// the matrix they read from the [`StampedSystem`] when they factor, so a
/// handle holds no copy of `G`. Results are identical to
/// [`CoolingSystem::solve`] bit for bit.
#[derive(Debug, Clone)]
pub struct SteadySolver<'a> {
    system: &'a CoolingSystem,
    /// `p(0)`: ambient injection plus silicon dissipation.
    base_power: Vec<f64>,
    /// `p(i)` at the current of the last retarget.
    power: Vec<f64>,
    factored: Option<(CacheKey, FactoredSystem)>,
    /// How new currents obtain their factorization; [`FactorStrategy::Refactor`]
    /// unless the handle opted into rank-k updates.
    strategy: FactorStrategy,
    /// The shared `i = 0` factorization behind [`FactorStrategy::RankKUpdate`],
    /// built lazily on the first updated probe and kept for the lifetime of
    /// the handle (clones share it through the [`Arc`]).
    updatable: Option<Arc<UpdatableFactor>>,
    /// Rank-k updates applied in place of full refactorizations.
    updates_applied: usize,
    /// Full refactorizations forced by a degraded update condition estimate.
    refactor_fallbacks: usize,
    /// Cooperative cancellation flag, set via [`SteadySolver::with_cancel`].
    cancel: Option<CancelToken>,
}

impl<'a> SteadySolver<'a> {
    /// The system this solver probes.
    pub fn system(&self) -> &'a CoolingSystem {
        self.system
    }

    /// Attaches a cooperative cancellation token: every subsequent solve
    /// through this handle checks it before preparing a factorization and
    /// (on the sparse backend) at every CG iteration boundary, returning
    /// [`OptError::Cancelled`] once it is raised. The token is private to
    /// this handle and its clones.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Routes this handle's factorizations through `strategy`.
    ///
    /// [`FactorStrategy::RankKUpdate`] turns per-current refactorizations
    /// into rank-k Sherman–Morrison–Woodbury corrections over one cached
    /// `i = 0` factor — the fast path behind the PR-7 greedy-deployment
    /// speedup. The strategy is private to this handle and its clones;
    /// [`CoolingSystem::solve`] always refactors, and the factorization
    /// cache key distinguishes the two representations, so switching
    /// strategies can never serve a stale updated factor to a plain probe
    /// (see the PR-7 cache-poisoning regression tests).
    #[must_use]
    pub fn with_strategy(mut self, strategy: FactorStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The factorization strategy this handle routes new currents through.
    pub fn strategy(&self) -> FactorStrategy {
        self.strategy
    }

    /// Rank-k updates this handle applied in place of full
    /// refactorizations (diagnostic; 0 under [`FactorStrategy::Refactor`]).
    pub fn rank_k_updates(&self) -> usize {
        self.updates_applied
    }

    /// Full refactorizations forced by a degraded update condition
    /// estimate — the automatic fallback of DESIGN.md §15.
    pub fn refactor_fallbacks(&self) -> usize {
        self.refactor_fallbacks
    }

    /// Solves the steady state at supply current `i` — the contract of
    /// [`CoolingSystem::solve`], reusing this handle's `p` and its
    /// factorization when `current` matches the previous probe.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CoolingSystem::solve`].
    pub fn solve(&mut self, current: Amperes) -> Result<SolvedState, OptError> {
        let raw = self.solve_power(current)?;
        self.system.finish_raw(current, raw)
    }

    /// Solves `(G − i·D)·x = rhs` for an arbitrary right-hand side, reusing
    /// the factorization when `current` matches the previous probe.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CoolingSystem::solve`].
    pub(crate) fn solve_rhs(
        &mut self,
        current: Amperes,
        rhs: &[f64],
    ) -> Result<Vec<f64>, OptError> {
        Ok(self.solve_raw(current, rhs)?.theta)
    }

    /// Solves `(G − i·D)·x_j = rhs_j` for several independent right-hand
    /// sides through one factorization — the batched form behind the
    /// gradient's paired solves and the multi-column response probes —
    /// using the blocked multi-RHS triangular sweeps on the Cholesky (and
    /// rank-k-updated) representations. The CG backend has no shared-factor
    /// economy to exploit, so it solves column by column, fallback behavior
    /// included.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CoolingSystem::solve`].
    pub(crate) fn solve_rhs_many(
        &mut self,
        current: Amperes,
        rhs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, OptError> {
        self.check_cancel()?;
        let fact = self.prepare(current)?;
        if fact.method() == SolveMethod::SparseCg {
            return rhs.iter().map(|b| self.solve_rhs(current, b)).collect();
        }
        let outs = fact.solve_many(rhs).map_err(|e| runaway_from(current, e))?;
        Ok(outs.into_iter().map(|o| o.x).collect())
    }

    /// The cache key a factorization at `current` would be stored under.
    fn cache_key(&self, current: Amperes) -> CacheKey {
        CacheKey {
            current_bits: current.value().to_bits(),
            strategy: self.strategy,
        }
    }

    /// Rebuilds `p(i)` from `p(0)` and the Joule sources of `current`. A
    /// negative current is rejected and leaves `p` at its previous point.
    fn retarget_power(&mut self, current: Amperes) -> Result<(), OptError> {
        let stamped = self.system.stamped();
        let joule = stamped.joule_power(current)?.value();
        self.power.copy_from_slice(&self.base_power);
        // Every junction is a node of the model, so `get_mut` always hits.
        for &k in stamped.joule_nodes() {
            if let Some(p) = self.power.get_mut(k) {
                *p += joule;
            }
        }
        Ok(())
    }

    /// Retargets `p(i)` (and the factorization) to `current` and returns
    /// the factorization it holds there.
    fn prepare(&mut self, current: Amperes) -> Result<&FactoredSystem, OptError> {
        let key = self.cache_key(current);
        // Take the previous factorization out before touching `p`: if
        // retargeting or factoring fails below, a surviving entry would key
        // the old current against the failed probe's power, and a later
        // solve at that current would cache-hit into wrong data.
        let fact = match self.factored.take() {
            Some((k, fact)) if k == key => fact,
            _ => {
                self.retarget_power(current)?;
                let stamped = self.system.stamped();
                match self.system.backend.resolve() {
                    ResolvedBackend::Cholesky if self.strategy == FactorStrategy::RankKUpdate => {
                        self.factor_via_update(current)?
                    }
                    ResolvedBackend::Cholesky => factor_placement(stamped, current)?,
                    resolved @ ResolvedBackend::DenseCholesky => {
                        FactoredSystem::factor(&stamped.system_matrix(current)?, resolved)
                            .map_err(|e| runaway_from(current, e))?
                    }
                    ResolvedBackend::SparseCg(settings) => FactoredSystem::Sparse {
                        matrix: stamped.sparse_system_matrix(current)?,
                        settings,
                    },
                }
            }
        };
        Ok(&self.factored.insert((key, fact)).1)
    }

    /// Produces the factorization at `current` by rank-k update over the
    /// shared `i = 0` base factor (a sparse Cholesky of the whole network on
    /// the model's pattern), falling back to the placement factor of
    /// [`FactorStrategy::Refactor`] when the update is ill-conditioned or its
    /// condition estimate exceeds [`UPDATE_CONDITION_LIMIT`] (the fallback
    /// policy of DESIGN.md §15).
    fn factor_via_update(&mut self, current: Amperes) -> Result<FactoredSystem, OptError> {
        let stamped = self.system.stamped();
        let delta = stamped.placement_delta();
        let updatable = match self.updatable.clone() {
            Some(u) => u,
            None => {
                let model = stamped.model();
                let base = Cholesky::factor_csr_with(model.cholesky_pattern()?, model.g_matrix())
                    .map_err(|e| runaway_from(Amperes(0.0), e))?;
                let u =
                    Arc::new(UpdatableFactor::new(base, delta.nodes()).map_err(OptError::from)?);
                self.updatable = Some(Arc::clone(&u));
                u
            }
        };
        let update = DiagonalUpdate::new(delta.deltas_at(current)).map_err(OptError::from)?;
        match updatable.apply(&update) {
            Ok(applied) if applied.condition_estimate() <= UPDATE_CONDITION_LIMIT => {
                self.updates_applied += 1;
                Ok(FactoredSystem::Updated(applied))
            }
            Ok(_) | Err(LinalgError::IllConditioned { .. }) => {
                // Degraded conditioning (typically near the runaway limit,
                // where the capacitance matrix approaches singularity):
                // the update's answer cannot be trusted to the equivalence
                // tolerance, so pay for a fresh factorization instead.
                self.refactor_fallbacks += 1;
                factor_placement(stamped, current)
            }
            Err(e) => Err(runaway_from(current, e)),
        }
    }

    /// Returns [`OptError::Cancelled`] once this handle's token is raised.
    fn check_cancel(&self) -> Result<(), OptError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(OptError::from(LinalgError::Cancelled { iterations: 0 }));
        }
        Ok(())
    }

    /// Solves against an arbitrary right-hand side at `current`, falling
    /// back to the placement factor if the CG backend stalls or needs an
    /// authoritative definiteness verdict.
    fn solve_raw(&mut self, current: Amperes, rhs: &[f64]) -> Result<RawSolve, OptError> {
        self.check_cancel()?;
        let cancel = self.cancel.clone();
        let fact = self.prepare(current)?;
        match fact.solve_with_cancel(rhs, cancel.as_ref()) {
            Ok(out) => Ok(RawSolve {
                theta: out.x,
                condition_estimate: out.condition_estimate,
                method: fact.method(),
            }),
            // A cancelled CG solve must NOT fall back to a factorization
            // below — that retry is exactly the work the caller asked to
            // stop.
            Err(e @ LinalgError::Cancelled { .. }) => Err(OptError::from(e)),
            Err(_) if matches!(fact, FactoredSystem::Sparse { .. }) => {
                // CG failed: nonpositive curvature, a nonpositive Jacobi
                // diagonal, or stagnation. Cholesky is the authoritative
                // oracle for all three — it either produces the solution
                // or proves the point is past runaway.
                let chol = factor_placement(self.system.stamped(), current)?;
                let out = chol.solve(rhs).map_err(OptError::from)?;
                self.factored = Some((self.cache_key(current), chol));
                Ok(RawSolve {
                    theta: out.x,
                    condition_estimate: out.condition_estimate,
                    method: SolveMethod::Cholesky,
                })
            }
            Err(e) => Err(runaway_from(current, e)),
        }
    }

    /// Solves against the handle's own power vector `p(i)`. Through
    /// the placement factor, `y_A = G_AA⁻¹·p_A` is solved once per power
    /// profile (the system's shared slot) and a solve is the `k×k` block
    /// plus `θ_A = y_A − X·θ_B`. The Joule sources sit on the TEC terminal
    /// nodes, so `p_A` is the same at every current.
    fn solve_power(&mut self, current: Amperes) -> Result<RawSolve, OptError> {
        self.check_cancel()?;
        self.prepare(current)?;
        let Some((_, FactoredSystem::Shifted(fact))) = &self.factored else {
            let rhs = self.power.clone();
            return self.solve_raw(current, &rhs);
        };
        let power = &self.power;
        let leading = &self.system.leading;
        let lead = match leading.get() {
            Some(lead) => lead,
            None => {
                let solved = fact.family().leading_solve(power)?;
                // A racing handle may have filled it; both solved one `p_A`.
                leading.get_or_init(|| solved)
            }
        };
        Ok(RawSolve {
            theta: fact.solve_with(lead, power)?,
            condition_estimate: fact.condition_estimate(),
            method: SolveMethod::Cholesky,
        })
    }
}

/// A solved steady state of a [`CoolingSystem`] at one supply current.
#[derive(Debug, Clone)]
pub struct SolvedState {
    current: Amperes,
    temps: Vec<Kelvin>,
    silicon: Vec<Celsius>,
    peak: Celsius,
    tec_power: Watts,
    condition_estimate: f64,
    solve_method: SolveMethod,
    degraded: bool,
}

impl SolvedState {
    /// The supply current this state was solved at.
    pub fn current(&self) -> Amperes {
        self.current
    }

    /// Full node temperature vector (matrix order).
    pub fn node_temperatures(&self) -> &[Kelvin] {
        &self.temps
    }

    /// Silicon tile temperatures, row-major.
    pub fn silicon_temperatures(&self) -> &[Celsius] {
        &self.silicon
    }

    /// Peak silicon tile temperature — the objective of Problem 2.
    pub fn peak(&self) -> Celsius {
        self.peak
    }

    /// Electrical power drawn by the TEC devices (Eq. 3 summed; the
    /// `P_TEC` column of Table I).
    pub fn tec_power(&self) -> Watts {
        self.tec_power
    }

    /// Pivot-ratio condition estimate of the factored system matrix
    /// `G − i·D`.
    ///
    /// On the Cholesky backends this is `(max L_kk / min L_kk)²` of the
    /// factor. The sparse factor is symmetrically permuted, but every pivot
    /// still lies in `[λ_min, λ_max]`, so the estimate stays a lower bound
    /// on `κ₂` (its value depends on the elimination order). It diverges as
    /// the supply current approaches the runaway limit `λ_m`, because the
    /// product of the squared pivots is `det(G − i·D)`, which vanishes there
    /// (Lemma 2) — so it doubles as a cheap "distance to runaway"
    /// diagnostic for this operating point.
    pub fn condition_estimate(&self) -> f64 {
        self.condition_estimate
    }

    /// Which kind of solve produced the temperatures: triangular solves
    /// through a Cholesky factor, or CG on the explicit
    /// [`SolverBackend::SparseCg`] backend.
    pub fn solve_method(&self) -> SolveMethod {
        self.solve_method
    }

    /// `true` when the temperatures warrant caution: the system matrix was
    /// ill-conditioned.
    ///
    /// The default sparse Cholesky backend compares its pivot-ratio
    /// estimate (a lower bound on `κ₂`, see
    /// [`SolvedState::condition_estimate`]) against
    /// [`WARN_CONDITION`]. The dense oracle backend's pivot
    /// ratio is the same kind of bound under the natural order, so the two
    /// can differ by the effect of the ordering. The explicit CG backend
    /// compares an iteration-count heuristic on a different scale, so treat
    /// the flag as a per-backend caution signal, not a cross-backend
    /// invariant.
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

impl CoolingSystem {
    /// Builds the system: package + devices on `tec_tiles` + per-tile
    /// worst-case powers.
    ///
    /// # Errors
    ///
    /// - [`OptError::PowerLengthMismatch`] if `tile_powers` does not cover
    ///   the grid.
    /// - Device/thermal errors for invalid tiles or parameters.
    pub fn new(
        config: &PackageConfig,
        params: TecParams,
        tec_tiles: &[TileIndex],
        tile_powers: Vec<Watts>,
    ) -> Result<CoolingSystem, OptError> {
        if tile_powers.len() != config.grid().tile_count() {
            return Err(OptError::PowerLengthMismatch {
                expected: config.grid().tile_count(),
                actual: tile_powers.len(),
            });
        }
        let raw: Vec<f64> = tile_powers.iter().map(|p| p.value()).collect();
        tecopt_units::validate::non_negative_slice("tile power", &raw)?;
        let stamped = StampedSystem::new(config, params, tec_tiles)?;
        Ok(CoolingSystem {
            stamped,
            tile_powers,
            backend: SolverBackend::default(),
            leading: LeadingSlot::default(),
        })
    }

    /// The system without any TEC devices (the "No TEC" column of Table I).
    ///
    /// # Errors
    ///
    /// Same contract as [`CoolingSystem::new`].
    pub fn without_devices(
        config: &PackageConfig,
        params: TecParams,
        tile_powers: Vec<Watts>,
    ) -> Result<CoolingSystem, OptError> {
        CoolingSystem::new(config, params, &[], tile_powers)
    }

    /// Returns a copy of this system with a different TEC tile set (same
    /// package, parameters, powers — and solver backend: a forced backend
    /// used to silently revert to [`SolverBackend::Auto`] here, so every
    /// greedy-deployment iteration escaped the override — and leading-block
    /// cache).
    ///
    /// The same tile list (equal slices, order included) is a clone: no
    /// assembly, no validation and no factor, the placement factor and the
    /// leading solve `y_A` shared with `self`. Any other list builds a new
    /// placement; an empty one yields the passive system,
    /// whose factor is the package's
    /// ([`tecopt_thermal::CompactModel::passive_factor_slot`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`CoolingSystem::new`].
    pub fn with_tiles(&self, tec_tiles: &[TileIndex]) -> Result<CoolingSystem, OptError> {
        if tec_tiles == self.tec_tiles() {
            return Ok(self.clone());
        }
        let mut system = CoolingSystem::new(
            self.stamped.model().config(),
            self.stamped.params().clone(),
            tec_tiles,
            self.tile_powers.clone(),
        )?
        .with_backend(self.backend);
        system
            .stamped
            .set_leading_cache(self.stamped.leading_cache().cloned());
        Ok(system)
    }

    /// Returns this system with its placement factor built through
    /// `cache` ([`StampedSystem::placement_factor`]), as is every system
    /// [`CoolingSystem::with_tiles`] derives from it: placements that
    /// share `G_AA` and `G_AB` (another film thickness over the same
    /// tiles, a passive network under other device parameters) factor
    /// `G_AA` once between them. A cache other than the attached one
    /// gives the system a fresh placement slot
    /// ([`StampedSystem::set_leading_cache`]), so a factor built before
    /// (the package's passive factor among them) is not carried over: the
    /// next one goes through `cache`, and so is the leading solve `y_A`.
    /// Results are bit-identical with or without the cache.
    pub fn with_leading_cache(mut self, cache: Arc<LeadingBlockCache>) -> CoolingSystem {
        self.stamped.set_leading_cache(Some(cache));
        self.leading = LeadingSlot::default();
        self
    }

    /// Returns this system routed through `backend` (the solves of the copy
    /// use it).
    pub fn with_backend(mut self, backend: SolverBackend) -> CoolingSystem {
        self.set_backend(backend);
        self
    }

    /// Switches the solver backend in place; the next handle solves
    /// through it.
    pub fn set_backend(&mut self, backend: SolverBackend) {
        self.backend = backend;
    }

    /// The configured solver backend (before `Auto` is resolved).
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// Replaces the worst-case power profile in place, keeping the package
    /// and deployment. The shared leading solve is dropped, so the next
    /// solve solves `y_A` again (and only then); clones made before keep
    /// the old profile's.
    ///
    /// # Errors
    ///
    /// - [`OptError::PowerLengthMismatch`] if `tile_powers` does not cover
    ///   the grid.
    /// - [`OptError::InvalidParameter`] for negative or non-finite powers.
    ///   The previous profile stays in effect on error.
    pub fn set_tile_powers(&mut self, tile_powers: Vec<Watts>) -> Result<(), OptError> {
        if tile_powers.len() != self.config().grid().tile_count() {
            return Err(OptError::PowerLengthMismatch {
                expected: self.config().grid().tile_count(),
                actual: tile_powers.len(),
            });
        }
        let raw: Vec<f64> = tile_powers.iter().map(|p| p.value()).collect();
        tecopt_units::validate::non_negative_slice("tile power", &raw)?;
        self.tile_powers = tile_powers;
        self.leading = LeadingSlot::default();
        Ok(())
    }

    /// Creates a solving handle with its own `p(i)` and factorization
    /// cache: every steady solve runs through one, and many probes (line
    /// searches, sweeps) keep one. Building it assembles `p(0)` (an
    /// `n`-vector, no copy of `G`); the handle factors through the
    /// placement's shared [`StampedSystem::placement_factor`] and reads the
    /// system's shared `y_A`.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures ([`OptError::Device`] /
    /// [`OptError::PowerLengthMismatch`]) that [`CoolingSystem::solve`]
    /// would also report.
    pub fn solver(&self) -> Result<SteadySolver<'_>, OptError> {
        let base_power = self.stamped.model().power_vector(&self.tile_powers)?;
        Ok(SteadySolver {
            system: self,
            power: base_power.clone(),
            base_power,
            factored: None,
            strategy: FactorStrategy::Refactor,
            updatable: None,
            updates_applied: 0,
            refactor_fallbacks: 0,
            cancel: None,
        })
    }

    /// Which factorization the placement's steady solves and runaway
    /// search ran through: the `k×k` trailing block over a `G_AA` factored
    /// once, or the network's sparse factor (the plan rule is in
    /// [`tecopt_linalg::ShiftedCholesky`]). `None` until a solve on the
    /// default backend or a [`crate::runaway_limit`] search built the
    /// placement factor (the dense oracle backend never builds it, the CG
    /// backend only on a Cholesky fallback). A diagnostic, not a setting:
    /// the plan follows from the placement.
    pub fn factor_plan(&self) -> Option<FactorPlan> {
        self.stamped.placement_plan()
    }

    /// The stamped device/thermal system underneath.
    pub fn stamped(&self) -> &StampedSystem {
        &self.stamped
    }

    /// Package configuration.
    pub fn config(&self) -> &PackageConfig {
        self.stamped.model().config()
    }

    /// Worst-case power per tile.
    pub fn tile_powers(&self) -> &[Watts] {
        &self.tile_powers
    }

    /// Total worst-case chip power.
    pub fn total_chip_power(&self) -> Watts {
        self.tile_powers.iter().copied().sum()
    }

    /// Tiles covered by TEC devices.
    pub fn tec_tiles(&self) -> &[TileIndex] {
        self.stamped.tiles()
    }

    /// Number of deployed devices.
    pub fn device_count(&self) -> usize {
        self.stamped.device_count()
    }

    /// A canonical text of everything that fixes this system's results:
    /// the package and device digests, the TEC tiles in deployment order,
    /// every tile power as the 16 hex digits of its bits, and the solver
    /// backend. Resumable sweeps, transient playbacks and explore ledgers
    /// bind their checkpoints to it, so a checkpoint written for one
    /// system reads as stale on another.
    pub fn digest(&self) -> String {
        let mut digest = format!(
            "system {} {} tiles",
            self.config().digest(),
            self.stamped.params().digest()
        );
        for t in self.tec_tiles() {
            digest.push_str(&format!(" {},{}", t.row, t.col));
        }
        digest.push_str(" powers");
        for p in &self.tile_powers {
            digest.push(' ');
            digest.push_str(&crate::record::hex_f64(p.value()));
        }
        digest.push_str(&format!(" backend {:?}", self.backend));
        digest
    }

    /// Solves the steady state at supply current `i` through a fresh
    /// [`SteadySolver`] handle (`self.solver()?.solve(i)`); keep a handle
    /// to solve at many currents, or at one current repeatedly, without
    /// re-assembling `p` and refactoring. No copy of `G` is made. The
    /// linear solve goes through the
    /// configured
    /// [`SolverBackend`] (by default the placement factor of
    /// [`StampedSystem::placement_factor`], which refactors only the `k×k`
    /// trailing block on the TEC terminal nodes per current; the dense
    /// oracle, or explicitly chosen Jacobi-preconditioned CG with a
    /// Cholesky fallback, each of which builds `G − i·D` when it factors a
    /// new current). Any
    /// definiteness failure is interpreted as thermal runaway, exactly the
    /// oracle of Theorem 1. The returned state always carries a condition
    /// estimate of the system matrix (pivot-ratio for Cholesky — a lower
    /// bound on `κ₂` under any elimination order — and an iteration-count
    /// heuristic for CG; see [`SolvedState::condition_estimate`]).
    ///
    /// # Errors
    ///
    /// - [`OptError::BeyondRunaway`] if `G − i·D` is not positive definite
    ///   (thermal runaway).
    /// - [`OptError::Device`] for a negative current.
    pub fn solve(&self, current: Amperes) -> Result<SolvedState, OptError> {
        self.solver()?.solve(current)
    }

    /// Derives the user-facing state (silicon temperatures, peak, TEC input
    /// power) from a raw backend solve.
    fn finish_raw(&self, current: Amperes, raw: RawSolve) -> Result<SolvedState, OptError> {
        let temps: Vec<Kelvin> = raw.theta.into_iter().map(Kelvin).collect();
        let silicon = self.stamped.model().silicon_temperatures(&temps);
        let peak = silicon
            .iter()
            .copied()
            .fold(Celsius(f64::NEG_INFINITY), Celsius::max);
        let tec_power = self.stamped.input_power(&temps, current)?;
        Ok(SolvedState {
            current,
            temps,
            silicon,
            peak,
            tec_power,
            condition_estimate: raw.condition_estimate,
            solve_method: raw.method,
            degraded: raw.condition_estimate > WARN_CONDITION,
        })
    }

    /// Tiles whose temperature exceeds `limit` in a solved state — the set
    /// `T` of the `GreedyDeploy` pseudo-code (Fig. 5).
    pub fn tiles_above(&self, state: &SolvedState, limit: Celsius) -> Vec<TileIndex> {
        let grid = self.config().grid();
        grid.tiles()
            .zip(state.silicon_temperatures())
            .filter(|(_, t)| **t > limit)
            .map(|(tile, _)| tile)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PackageConfig {
        PackageConfig::hotspot41_like(4, 4).unwrap()
    }

    fn hotspot_powers() -> Vec<Watts> {
        let mut p = vec![Watts(0.05); 16];
        p[5] = Watts(0.7);
        p
    }

    fn system(tiles: &[TileIndex]) -> CoolingSystem {
        CoolingSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            tiles,
            hotspot_powers(),
        )
        .unwrap()
    }

    /// The placement factor a handle's cached factorization belongs to.
    fn family_of(solver: &SteadySolver<'_>) -> Arc<tecopt_linalg::ShiftedCholesky> {
        match solver.factored.as_ref().map(|(_, f)| f) {
            Some(FactoredSystem::Shifted(f)) => Arc::clone(f.family()),
            other => panic!("expected a placement factor, got {other:?}"),
        }
    }

    /// The placement factor a fresh handle of `system` solves `current`
    /// through.
    fn solved_family(system: &CoolingSystem, current: f64) -> Arc<tecopt_linalg::ShiftedCholesky> {
        let mut handle = system.solver().unwrap();
        handle.solve(Amperes(current)).unwrap();
        family_of(&handle)
    }

    #[test]
    fn one_cholesky_pattern_serves_the_whole_network() {
        let mut system = system(&[TileIndex::new(1, 1)]);
        // The runaway search builds the placement factor, and a clone made
        // before it shares the slot.
        let early = system.clone();
        assert_eq!(system.factor_plan(), None);
        crate::runaway_limit(&system, 1e-9).unwrap();
        assert_eq!(
            early.factor_plan(),
            Some(FactorPlan::TrailingBlock { k: 2 })
        );
        let block = Arc::clone(system.stamped().placement_factor().unwrap());
        for current in [1.0, 2.0, 3.0] {
            assert!(Arc::ptr_eq(&solved_family(&system, current), &block));
        }

        // A clone, and one made before the factor was built, share the
        // placement: their handles reuse the block.
        let clone = system.clone();
        assert!(Arc::ptr_eq(&solved_family(&clone, 1.5), &block));
        assert!(Arc::ptr_eq(&solved_family(&early, 0.5), &block));

        // The transient simulator factors `C/Δt + G − i·D` on the model's
        // one network pattern, which the trailing block never analyses.
        let model = Arc::clone(system.stamped().model().cholesky_pattern().unwrap());
        let mut sim = crate::transient::TransientSimulator::new(system.clone(), 1e-3).unwrap();
        sim.step(&hotspot_powers(), Amperes(1.0)).unwrap();
        sim.step(&hotspot_powers(), Amperes(2.0)).unwrap();
        let stepper_patterns = sim.cached_patterns();
        assert_eq!(stepper_patterns.len(), 2);
        for p in &stepper_patterns {
            assert!(Arc::ptr_eq(p, &model));
        }

        // New powers keep the placement, so the block survives while the
        // old profile's `y_A` is dropped.
        assert!(system.leading.get().is_some());
        system.set_tile_powers(vec![Watts(0.1); 16]).unwrap();
        assert!(system.leading.get().is_none());
        assert!(Arc::ptr_eq(&solved_family(&system, 1.0), &block));

        // A new tile set is a new placement with its own block.
        let other = system.with_tiles(&[TileIndex::new(2, 2)]).unwrap();
        let fresh = solved_family(&other, 1.0);
        assert!(!Arc::ptr_eq(&fresh, &block));
        assert!(Arc::ptr_eq(
            &fresh,
            other.stamped().placement_factor().unwrap()
        ));
    }

    /// The leading solve a system's handles read, once one has solved it.
    fn leading_of(system: &CoolingSystem) -> *const LeadingSolve {
        system.leading.get().expect("y_A solved")
    }

    fn state_bits(state: &SolvedState) -> Vec<u64> {
        state
            .node_temperatures()
            .iter()
            .map(|t| t.value().to_bits())
            .collect()
    }

    #[test]
    fn handles_and_clones_of_one_profile_share_one_leading_solve() {
        let mut s = system(&[TileIndex::new(1, 1), TileIndex::new(2, 3)]);
        let mut first = s.solver().unwrap();
        let a = first.solve(Amperes(1.0)).unwrap();
        let solved = leading_of(&s);
        // A second handle, a clone's solve and a clone's handle are fresh
        // handles: each reads the one `y_A` and solves none.
        let mut second = s.solver().unwrap();
        let clone = s.clone();
        let b = second.solve(Amperes(1.0)).unwrap();
        let c = clone.solve(Amperes(1.0)).unwrap();
        let d = clone.solver().unwrap().solve(Amperes(1.0)).unwrap();
        assert_eq!(leading_of(&s), solved);
        assert_eq!(leading_of(&clone), solved);
        for state in [&b, &c, &d] {
            assert_eq!(state_bits(state), state_bits(&a));
        }

        // A new profile solves a new one, and the clone keeps the old.
        let mut powers = hotspot_powers();
        powers[3] = Watts(0.4);
        s.set_tile_powers(powers).unwrap();
        assert!(s.leading.get().is_none());
        let e = s.solve(Amperes(1.0)).unwrap();
        assert_ne!(leading_of(&s), solved);
        assert_eq!(leading_of(&clone), solved);
        assert_ne!(state_bits(&e), state_bits(&a));
        assert_eq!(
            state_bits(&clone.solve(Amperes(1.0)).unwrap()),
            state_bits(&a)
        );
    }

    #[test]
    fn new_powers_solve_like_a_freshly_built_system_bit_for_bit() {
        // Cache poisoning through the cached `y_A`: a solve after
        // `set_tile_powers` must not reuse the old profile's leading solve.
        let tiles = [TileIndex::new(1, 1), TileIndex::new(2, 3)];
        let mut s = system(&tiles);
        let mut new_powers = hotspot_powers();
        new_powers[3] = Watts(0.4);
        for i in [0.0, 1.0, 2.5] {
            s.solve(Amperes(i)).unwrap();
        }
        s.set_tile_powers(new_powers.clone()).unwrap();
        let fresh = CoolingSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &tiles,
            new_powers,
        )
        .unwrap();
        for i in [2.5, 0.0, 1.0] {
            let a = s.solve(Amperes(i)).unwrap();
            let b = fresh.solve(Amperes(i)).unwrap();
            for (x, y) in a.node_temperatures().iter().zip(b.node_temperatures()) {
                assert_eq!(x.value().to_bits(), y.value().to_bits(), "at i = {i}");
            }
            let mut handle = s.solver().unwrap();
            let c = handle.solve(Amperes(i)).unwrap();
            assert_eq!(c.peak().value().to_bits(), b.peak().value().to_bits());
        }
    }

    #[test]
    fn construction_validates_powers() {
        let err = CoolingSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &[],
            vec![Watts(1.0); 3],
        )
        .unwrap_err();
        assert!(matches!(err, OptError::PowerLengthMismatch { .. }));
        let mut p = hotspot_powers();
        p[0] = Watts(-1.0);
        assert!(matches!(
            CoolingSystem::new(&config(), TecParams::superlattice_thin_film(), &[], p),
            Err(OptError::InvalidParameter(_))
        ));
    }

    #[test]
    fn passive_solve_matches_thermal_layer() {
        let s = CoolingSystem::without_devices(
            &config(),
            TecParams::superlattice_thin_film(),
            hotspot_powers(),
        )
        .unwrap();
        let state = s.solve(Amperes(0.0)).unwrap();
        let direct = s
            .stamped()
            .model()
            .solve_passive(&hotspot_powers())
            .unwrap();
        for (a, b) in state.node_temperatures().iter().zip(&direct) {
            assert!((a.value() - b.value()).abs() < 1e-9);
        }
        assert_eq!(state.tec_power(), Watts(0.0));
    }

    #[test]
    fn current_changes_the_solution_only_with_devices() {
        let passive = system(&[]);
        let s0 = passive.solve(Amperes(0.0)).unwrap();
        let s5 = passive.solve(Amperes(5.0)).unwrap();
        assert!((s0.peak().value() - s5.peak().value()).abs() < 1e-9);

        let active = system(&[TileIndex::new(1, 1)]);
        let a0 = active.solve(Amperes(0.0)).unwrap();
        let a3 = active.solve(Amperes(3.0)).unwrap();
        assert!(a3.peak() < a0.peak());
        assert!(a3.tec_power().value() > 0.0);
    }

    #[test]
    fn tiles_above_threshold() {
        let s = system(&[]);
        let state = s.solve(Amperes(0.0)).unwrap();
        let all = s.tiles_above(&state, Celsius(-100.0));
        assert_eq!(all.len(), 16);
        let none = s.tiles_above(&state, Celsius(500.0));
        assert!(none.is_empty());
        // With a threshold just below the peak, only the hotspot exceeds.
        let just_below = Celsius(state.peak().value() - 0.01);
        let hot = s.tiles_above(&state, just_below);
        assert_eq!(hot, vec![TileIndex::new(1, 1)]);
    }

    #[test]
    fn runaway_current_reported() {
        let s = system(&[TileIndex::new(1, 1)]);
        // Far beyond any plausible runaway limit for these parameters.
        let big = Amperes(1.0e5);
        match s.solve(big) {
            Err(OptError::BeyondRunaway { current }) => assert_eq!(current, 1.0e5),
            other => panic!("expected BeyondRunaway, got {other:?}"),
        }
    }

    #[test]
    fn solve_reports_condition_diagnostics() {
        let s = system(&[TileIndex::new(1, 1)]);
        let far = s.solve(Amperes(0.0)).unwrap();
        assert_eq!(far.solve_method(), SolveMethod::Cholesky);
        assert!(far.condition_estimate().is_finite());
        assert!(far.condition_estimate() >= 1.0);
        assert!(!far.degraded());
    }

    #[test]
    fn condition_estimate_grows_toward_runaway() {
        // Bracket the runaway limit coarsely, then compare conditioning far
        // from and near the limit: the "distance to runaway" diagnostic must
        // grow monotonically enough to be useful.
        let s = system(&[TileIndex::new(1, 1)]);
        let mut hi = 1.0_f64;
        while s.solve(Amperes(hi * 2.0)).is_ok() {
            hi *= 2.0;
        }
        let far = s.solve(Amperes(0.0)).unwrap();
        let near = s.solve(Amperes(hi * 0.999)).unwrap();
        assert!(
            near.condition_estimate() > 2.0 * far.condition_estimate(),
            "near {} vs far {}",
            near.condition_estimate(),
            far.condition_estimate()
        );
    }

    #[test]
    fn handle_power_matches_fresh_stamping_bit_for_bit() {
        let s = CoolingSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1), TileIndex::new(2, 3)],
            vec![Watts(0.1); 16],
        )
        .unwrap();
        let mut handle = s.solver().unwrap();
        // Visit currents out of order to exercise the in-place retarget.
        for i in [0.0, 3.5, 1.25, 3.5, 0.0, 7.0] {
            handle.prepare(Amperes(i)).unwrap();
            let p = s
                .stamped()
                .power_vector(s.tile_powers(), Amperes(i))
                .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&handle.power), bits(&p), "power at i = {i}");
        }
    }

    #[test]
    fn handle_rejects_negative_current_and_keeps_its_power() {
        let s = system(&[TileIndex::new(1, 1)]);
        let mut handle = s.solver().unwrap();
        handle.prepare(Amperes(2.0)).unwrap();
        let at_two = handle.power.clone();
        for bad in [-1.0, f64::NAN] {
            assert!(matches!(
                handle.prepare(Amperes(bad)),
                Err(OptError::Device(
                    tecopt_device::DeviceError::NegativeCurrent { .. }
                ))
            ));
            assert_eq!(handle.power, at_two);
        }
    }

    #[test]
    fn set_tile_powers_invalidates_cache_and_matches_fresh_system() {
        let mut s = system(&[TileIndex::new(1, 1)]);
        s.solve(Amperes(2.0)).unwrap();

        let mut new_powers = hotspot_powers();
        new_powers[10] = Watts(0.9);
        s.set_tile_powers(new_powers.clone()).unwrap();
        let updated = s.solve(Amperes(2.0)).unwrap();

        let fresh = CoolingSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1)],
            new_powers,
        )
        .unwrap();
        let expected = fresh.solve(Amperes(2.0)).unwrap();
        assert_eq!(updated.peak().value(), expected.peak().value());
        for (a, b) in updated
            .node_temperatures()
            .iter()
            .zip(expected.node_temperatures())
        {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn set_tile_powers_rejects_bad_profiles_and_keeps_state() {
        let mut s = system(&[TileIndex::new(1, 1)]);
        let before = s.solve(Amperes(1.0)).unwrap();
        assert!(matches!(
            s.set_tile_powers(vec![Watts(1.0); 3]),
            Err(OptError::PowerLengthMismatch { .. })
        ));
        let mut neg = hotspot_powers();
        neg[2] = Watts(-0.1);
        assert!(matches!(
            s.set_tile_powers(neg),
            Err(OptError::InvalidParameter(_))
        ));
        let after = s.solve(Amperes(1.0)).unwrap();
        assert_eq!(before.peak().value(), after.peak().value());
    }

    #[test]
    fn forced_sparse_backend_agrees_with_dense() {
        let dense = system(&[TileIndex::new(1, 1)]);
        let sparse = system(&[TileIndex::new(1, 1)])
            .with_backend(SolverBackend::SparseCg(tecopt_linalg::CgSettings::default()));
        for i in [0.0, 1.0, 3.0] {
            let a = dense.solve(Amperes(i)).unwrap();
            let b = sparse.solve(Amperes(i)).unwrap();
            assert_eq!(b.solve_method(), SolveMethod::SparseCg);
            for (x, y) in a.node_temperatures().iter().zip(b.node_temperatures()) {
                let rel = (x.value() - y.value()).abs() / x.value().abs().max(1.0);
                assert!(rel < 1e-8, "rel err {rel} at i={i}");
            }
        }
    }

    #[test]
    fn with_tiles_preserves_a_forced_backend() {
        // Regression: the deployment step used to rebuild through
        // `CoolingSystem::new` with the default (Auto) backend, so a
        // forced backend silently escaped after the first greedy
        // iteration.
        let s = system(&[TileIndex::new(1, 1)])
            .with_backend(SolverBackend::SparseCg(tecopt_linalg::CgSettings::default()));
        let stepped = s.with_tiles(&[TileIndex::new(2, 2)]).unwrap();
        assert!(matches!(stepped.backend(), SolverBackend::SparseCg(_)));
        let state = stepped.solve(Amperes(1.0)).unwrap();
        assert_eq!(state.solve_method(), SolveMethod::SparseCg);
    }

    #[test]
    fn with_tiles_keeps_the_leading_cache() {
        let cache = Arc::new(LeadingBlockCache::new());
        let passive = system(&[]).with_leading_cache(Arc::clone(&cache));
        passive.solve(Amperes(0.0)).unwrap();
        assert_eq!((cache.built(), cache.reused()), (1, 0));
        // Two derived placements reach the cache, and a second passive
        // system reuses the first one's block.
        let one = passive.with_tiles(&[TileIndex::new(1, 1)]).unwrap();
        assert!(Arc::ptr_eq(one.stamped().leading_cache().unwrap(), &cache));
        one.solve(Amperes(1.0)).unwrap();
        one.with_tiles(&[]).unwrap().solve(Amperes(0.0)).unwrap();
        assert_eq!((cache.built(), cache.reused()), (2, 1));
        assert!(system(&[]).stamped().leading_cache().is_none());
    }

    fn bits(state: &SolvedState) -> Vec<u64> {
        state
            .node_temperatures()
            .iter()
            .map(|t| t.value().to_bits())
            .collect()
    }

    #[test]
    fn with_tiles_of_the_same_list_is_a_clone() {
        let tiles = [TileIndex::new(1, 1), TileIndex::new(2, 3)];
        let s = system(&tiles);
        let solved = s.solve(Amperes(1.0)).unwrap();
        let same = s.with_tiles(&tiles).unwrap();
        // The factor built for `s` is already there: nothing to build.
        assert!(same.stamped().placement_plan().is_some());
        assert!(Arc::ptr_eq(
            same.stamped().placement_factor().unwrap(),
            s.stamped().placement_factor().unwrap()
        ));
        assert_eq!(bits(&same.solve(Amperes(1.0)).unwrap()), bits(&solved));
        // Another order of the same tiles is another placement.
        let permuted = s.with_tiles(&[tiles[1], tiles[0]]).unwrap();
        assert_eq!(permuted.tec_tiles(), [tiles[1], tiles[0]]);
        assert!(permuted.stamped().placement_plan().is_none());
        assert!(!Arc::ptr_eq(
            permuted.stamped().placement_factor().unwrap(),
            s.stamped().placement_factor().unwrap()
        ));
    }

    #[test]
    fn attaching_another_cache_builds_the_next_factor_through_it() {
        // The passive factor is built without a cache first, as a greedy
        // start does before an explorer attaches its cache.
        let passive = system(&[]);
        let uncached = passive.solve(Amperes(0.0)).unwrap();
        let cache = Arc::new(LeadingBlockCache::new());
        let cached = passive
            .with_tiles(&[])
            .unwrap()
            .with_leading_cache(Arc::clone(&cache));
        assert!(cached.stamped().placement_plan().is_none());
        assert_eq!(bits(&cached.solve(Amperes(0.0)).unwrap()), bits(&uncached));
        assert_eq!((cache.built(), cache.reused()), (1, 0));
        // Re-attaching the same cache keeps the factor it built.
        let again = cached.clone().with_leading_cache(Arc::clone(&cache));
        assert!(Arc::ptr_eq(
            again.stamped().placement_factor().unwrap(),
            cached.stamped().placement_factor().unwrap()
        ));
        assert_eq!((cache.built(), cache.reused()), (1, 0));
        // Another cache builds again, through itself.
        let other = Arc::new(LeadingBlockCache::new());
        let moved = again.with_leading_cache(Arc::clone(&other));
        assert_eq!(bits(&moved.solve(Amperes(0.0)).unwrap()), bits(&uncached));
        assert_eq!((other.built(), cache.built()), (1, 1));
        // The uncached systems keep theirs.
        assert!(passive.stamped().placement_plan().is_some());
        assert!(!Arc::ptr_eq(
            passive.stamped().placement_factor().unwrap(),
            cached.stamped().placement_factor().unwrap()
        ));
    }

    #[test]
    fn sparse_backend_still_reports_runaway() {
        let s = system(&[TileIndex::new(1, 1)])
            .with_backend(SolverBackend::SparseCg(tecopt_linalg::CgSettings::default()));
        match s.solve(Amperes(1.0e5)) {
            Err(OptError::BeyondRunaway { current }) => assert_eq!(current, 1.0e5),
            other => panic!("expected BeyondRunaway, got {other:?}"),
        }
    }

    #[test]
    fn failed_probe_does_not_poison_the_factorization_cache() {
        // Regression: `prepare` used to retarget the solver state to the failed
        // probe's current and bail on the factorization error while the
        // cached key still named the previous current. The next solve at
        // that current then cache-hit `prepare` and read the failed probe's
        // matrix/power, silently producing wrong temperatures. After a
        // failed probe, a repeat solve must be bit-identical to the first.
        let dense = system(&[TileIndex::new(1, 1)]);
        let sparse = system(&[TileIndex::new(1, 1)])
            .with_backend(SolverBackend::SparseCg(tecopt_linalg::CgSettings::default()));
        for s in [&dense, &sparse] {
            let first = s.solve(Amperes(2.0)).unwrap();
            assert!(matches!(
                s.solve(Amperes(1.0e5)),
                Err(OptError::BeyondRunaway { .. })
            ));
            let again = s.solve(Amperes(2.0)).unwrap();
            assert_eq!(first.peak().value(), again.peak().value());
            for (a, b) in first
                .node_temperatures()
                .iter()
                .zip(again.node_temperatures())
            {
                assert_eq!(a.value(), b.value());
            }
        }

        // Same contract through a private handle.
        let mut handle = dense.solver().unwrap();
        let first = handle.solve(Amperes(2.0)).unwrap();
        assert!(matches!(
            handle.solve(Amperes(1.0e5)),
            Err(OptError::BeyondRunaway { .. })
        ));
        let again = handle.solve(Amperes(2.0)).unwrap();
        for (a, b) in first
            .node_temperatures()
            .iter()
            .zip(again.node_temperatures())
        {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn steady_solver_matches_shared_solve_bit_for_bit() {
        let s = system(&[TileIndex::new(1, 1)]);
        let mut handle = s.solver().unwrap();
        for i in [0.0, 2.0, 3.5, 2.0] {
            let via_system = s.solve(Amperes(i)).unwrap();
            let via_handle = handle.solve(Amperes(i)).unwrap();
            for (a, b) in via_system
                .node_temperatures()
                .iter()
                .zip(via_handle.node_temperatures())
            {
                assert_eq!(a.value(), b.value());
            }
            assert_eq!(via_system.peak().value(), via_handle.peak().value());
        }
    }

    #[test]
    fn rank_k_strategy_matches_refactor_to_tolerance() {
        let s = system(&[TileIndex::new(1, 1), TileIndex::new(2, 2)]);
        let mut fast = s
            .solver()
            .unwrap()
            .with_strategy(FactorStrategy::RankKUpdate);
        assert_eq!(fast.strategy(), FactorStrategy::RankKUpdate);
        for i in [0.0, 1.0, 2.5, 4.0, 2.5] {
            let reference = s.solve(Amperes(i)).unwrap();
            let updated = fast.solve(Amperes(i)).unwrap();
            for (a, b) in reference
                .node_temperatures()
                .iter()
                .zip(updated.node_temperatures())
            {
                let rel = (a.value() - b.value()).abs() / a.value().abs().max(1.0);
                assert!(rel < 1e-9, "rel err {rel} at i={i}");
            }
            let dp = (reference.peak().value() - updated.peak().value()).abs();
            assert!(dp < 1e-8, "peak drift {dp} at i={i}");
        }
        // i = 0 is the base factor itself; every other distinct current is
        // one rank-k correction, never a refactorization.
        assert!(fast.rank_k_updates() >= 3, "{}", fast.rank_k_updates());
        assert_eq!(fast.refactor_fallbacks(), 0);
    }

    #[test]
    fn stale_post_update_cache_hit_is_impossible() {
        // Regression (the PR-2 cache-poisoning shape, across
        // representations): an SMW-updated factor at current `i` represents
        // the same matrix as a fresh factor but NOT bit-identically. If the
        // factorization cache were keyed by current alone, flipping a handle
        // back to the refactor strategy would cache-hit the stale updated
        // factor and silently break the plain path's bit-exactness contract.
        let s = system(&[TileIndex::new(1, 1)]);
        let i = Amperes(2.0);
        let reference = s.solve(i).unwrap();

        let mut fast = s
            .solver()
            .unwrap()
            .with_strategy(FactorStrategy::RankKUpdate);
        fast.solve(i).unwrap();
        assert!(
            matches!(fast.factored, Some((_, FactoredSystem::Updated(_)))),
            "fast path should have cached an updated factor"
        );
        // The two strategies must never agree on a cache key at one current.
        let updated_key = fast.cache_key(i);
        let mut plain = fast.with_strategy(FactorStrategy::Refactor);
        let plain_key = plain.cache_key(i);
        assert_ne!(updated_key, plain_key);
        assert_eq!(updated_key.current_bits, plain_key.current_bits);
        assert_eq!(updated_key.strategy, FactorStrategy::RankKUpdate);
        assert_eq!(plain_key.strategy, FactorStrategy::Refactor);

        // Re-solving through the plain strategy must refactor (structural
        // proof: the cached entry is now a plain Cholesky factor) and agree
        // with the system's own solve bit for bit.
        let again = plain.solve(i).unwrap();
        assert!(
            matches!(plain.factored, Some((_, FactoredSystem::Shifted(_)))),
            "plain probe must not reuse the updated factor"
        );
        for (a, b) in reference
            .node_temperatures()
            .iter()
            .zip(again.node_temperatures())
        {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn update_fallback_refactors_near_runaway() {
        // Very close to the runaway limit the capacitance LDLᵀ is nearly
        // singular: the update must detect its degraded conditioning and
        // refactor from scratch rather than return an untrustworthy
        // correction. The fallback's answer equals the plain path's.
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = crate::runaway_limit(&s, 1e-13).unwrap();
        let edge = lim.feasible();
        let reference = s.solve(edge).unwrap();
        let mut fast = s
            .solver()
            .unwrap()
            .with_strategy(FactorStrategy::RankKUpdate);
        let updated = fast.solve(edge).unwrap();
        assert!(
            fast.refactor_fallbacks() >= 1,
            "conditioning at the bracket edge must trip the fallback"
        );
        assert_eq!(reference.peak().value(), updated.peak().value());
        // The fallback is per-probe: a healthy current afterwards goes back
        // to the update path.
        fast.solve(Amperes(edge.value() * 0.5)).unwrap();
        assert!(fast.rank_k_updates() >= 1);
    }

    #[test]
    fn solve_rhs_many_matches_per_column_solves() {
        let dense = system(&[TileIndex::new(1, 1)]);
        let sparse = system(&[TileIndex::new(1, 1)])
            .with_backend(SolverBackend::SparseCg(tecopt_linalg::CgSettings::default()));
        for s in [&dense, &sparse] {
            let n = s.stamped().model().node_count();
            let cols: Vec<Vec<f64>> = (0..3)
                .map(|j| {
                    (0..n)
                        .map(|k| ((k + 7 * j) % 5) as f64 * 0.1 + 0.01)
                        .collect()
                })
                .collect();
            let mut handle = s.solver().unwrap();
            let batched = handle.solve_rhs_many(Amperes(1.5), &cols).unwrap();
            assert_eq!(batched.len(), cols.len());
            for (b, col) in batched.iter().zip(&cols) {
                let single = handle.solve_rhs(Amperes(1.5), col).unwrap();
                for (x, y) in b.iter().zip(&single) {
                    let rel = (x - y).abs() / y.abs().max(1.0);
                    assert!(rel < 1e-10, "batched vs scalar rel err {rel}");
                }
            }
        }
    }

    #[test]
    fn with_tiles_rebuilds() {
        let s = system(&[]);
        assert_eq!(s.device_count(), 0);
        let s2 = s
            .with_tiles(&[TileIndex::new(0, 0), TileIndex::new(3, 3)])
            .unwrap();
        assert_eq!(s2.device_count(), 2);
        assert_eq!(s2.tile_powers(), s.tile_powers());
        assert!((s.total_chip_power().value() - 1.45).abs() < 1e-12);
    }
}
