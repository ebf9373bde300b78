use crate::OptError;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tecopt_device::{SolveWorkspace, StampedSystem, TecParams};
use tecopt_linalg::{
    CancelToken, Cholesky, DiagonalUpdate, FactorPlan, FactoredSystem, LeadingSolve, LinalgError,
    ResolvedBackend, SolveMethod, SolverBackend, UpdatableFactor, WARN_CONDITION,
};
use tecopt_thermal::{PackageConfig, TileIndex};
use tecopt_units::{Amperes, Celsius, Kelvin, Watts};

/// A chip package with a TEC deployment and a worst-case power profile —
/// everything Eq. 4 needs: `(G − i·D)·θ = p(i)`.
///
/// The single supply current reflects the paper's one-extra-pin constraint:
/// all deployed devices are electrically in series and share `i`.
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
#[derive(Debug)]
pub struct CoolingSystem {
    stamped: StampedSystem,
    tile_powers: Vec<Watts>,
    backend: SolverBackend,
    /// Lazily built solver state shared by [`CoolingSystem::solve`] /
    /// [`CoolingSystem::solve_rhs`] callers: the `(G, p)` pair is assembled
    /// once and retargeted in place per probe. Guarded by a mutex so `&self`
    /// solves stay thread-safe; parallel sweeps avoid the lock entirely by
    /// carrying a private [`SteadySolver`] per worker.
    cache: Mutex<SolverCache>,
}

impl Clone for CoolingSystem {
    fn clone(&self) -> CoolingSystem {
        // The cache is derived state: a clone starts cold and rebuilds its
        // workspace on first solve.
        CoolingSystem {
            stamped: self.stamped.clone(),
            tile_powers: self.tile_powers.clone(),
            backend: self.backend,
            cache: Mutex::new(SolverCache::default()),
        }
    }
}

#[derive(Debug, Default)]
struct SolverCache {
    core: Option<SolverCore>,
    assemblies: usize,
}

/// How a solver obtains the factorization of `G − i·D` when the probe
/// current changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FactorStrategy {
    /// Factor afresh at every new current — the reference path (and the
    /// equivalence oracle for the update path). This is the default and
    /// the only strategy the shared [`CoolingSystem::solve`] cache uses. On
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
    /// it is a no-op — CG takes the workspace's CSR matrix as it is, with
    /// no factorization to update — and the dense oracle backend always
    /// refactors.
    RankKUpdate,
}

/// Condition-estimate ceiling above which an applied rank-k update is
/// discarded and the matrix refactored from scratch. The estimate is the
/// product of the base factor's pivot ratio and the capacitance LDLᵀ's
/// pivot ratio — a cheap upper-bound heuristic for how much the SMW
/// correction can amplify rounding. See DESIGN.md §15 for the policy.
const UPDATE_CONDITION_LIMIT: f64 = 1.0e12;

/// Cache key of the last factorization held by a [`SolverCore`].
///
/// The current alone is NOT a sound key: two factorizations at the same
/// current can represent the same matrix in different ways (a fresh
/// Cholesky factor vs an SMW-updated one, which agree only to rounding),
/// and the PR-2 cache-poisoning regression showed how a stale hit turns
/// into silently wrong temperatures. The key therefore pairs the exact
/// current bits with a representation fingerprint: the workspace's
/// structural fingerprint for plain factorizations, with an extra marker
/// folded in for rank-k-updated ones, so the two representations can never
/// share a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    current_bits: u64,
    fingerprint: u64,
}

/// One steady-state solve, before the user-facing state is derived.
#[derive(Debug)]
struct RawSolve {
    theta: Vec<f64>,
    condition_estimate: f64,
    method: SolveMethod,
}

/// The reusable solver state behind both the shared cache and
/// [`SteadySolver`]: a [`SolveWorkspace`] (CSR `G − i·D` and `p(i)`
/// retargeted in place), the resolved backend, and the last factorization
/// keyed by its current so repeated solves at one operating point (e.g. the
/// two extra right-hand sides of a gradient evaluation) factor only once.
/// Default-backend factors come from the placement's
/// [`StampedSystem::placement_factor`], which every core of the placement
/// shares, so a fresh core never re-analyses or refactors `G_AA`.
#[derive(Debug, Clone)]
struct SolverCore {
    ws: SolveWorkspace,
    resolved: ResolvedBackend,
    factored: Option<(CacheKey, FactoredSystem)>,
    /// Workspace structural fingerprint, fixed at assembly time (retargeting
    /// the current does not change it) — the plain-path half of [`CacheKey`].
    fingerprint: u64,
    /// How new currents obtain their factorization; [`FactorStrategy::Refactor`]
    /// unless a private handle opted into rank-k updates.
    strategy: FactorStrategy,
    /// The shared `i = 0` factorization behind [`FactorStrategy::RankKUpdate`],
    /// built lazily on the first updated probe and kept for the lifetime of
    /// the placement (clones share it through the [`Arc`]).
    updatable: Option<Arc<UpdatableFactor>>,
    /// Rank-k updates applied in place of full refactorizations.
    updates_applied: usize,
    /// Full refactorizations forced by a degraded update condition estimate.
    refactor_fallbacks: usize,
    /// Cooperative cancellation flag, set only on private
    /// [`SteadySolver`] handles via [`SteadySolver::with_cancel`]; the
    /// shared cache never carries one, so a token cannot leak into
    /// unrelated [`CoolingSystem::solve`] calls through the cache.
    cancel: Option<CancelToken>,
    /// `y_A = G_AA⁻¹·p_A` of the placement factor for this core's power
    /// profile, built on the first solve against `p(i)`. The Joule sources
    /// sit on the TEC terminal nodes, so `p_A` is the same at every
    /// current; a new profile builds a new core.
    leading: Option<LeadingSolve>,
}

impl SolverCore {
    fn build(system: &CoolingSystem) -> Result<SolverCore, OptError> {
        let ws = system
            .stamped
            .solve_workspace(&system.tile_powers)
            .map_err(OptError::from)?;
        Ok(SolverCore {
            resolved: system.backend.resolve(),
            fingerprint: ws.structural_fingerprint(),
            ws,
            factored: None,
            strategy: FactorStrategy::Refactor,
            updatable: None,
            updates_applied: 0,
            refactor_fallbacks: 0,
            cancel: None,
            leading: None,
        })
    }

    /// The cache key a factorization at `current` would be stored under.
    ///
    /// Rank-k-updated factors agree with fresh ones only to rounding, so the
    /// update strategy folds a marker into the fingerprint half on every
    /// direct backend: a plain probe can never hit an updated entry (or
    /// vice versa), which is the stale-representation half of the
    /// cache poisoning [`CacheKey`] guards against. The CG backend solves
    /// on an exact copy of the workspace matrix, so it stays under the
    /// plain fingerprint.
    fn cache_key(&self, current: Amperes) -> CacheKey {
        let direct = matches!(
            self.resolved,
            ResolvedBackend::Cholesky | ResolvedBackend::DenseCholesky
        );
        let fingerprint = if self.strategy == FactorStrategy::RankKUpdate && direct {
            // FNV-style fold of an arbitrary marker ("updated!" in ASCII).
            (self.fingerprint ^ 0x7570_6461_7465_6421).wrapping_mul(0x0000_0100_0000_01B3)
        } else {
            self.fingerprint
        };
        CacheKey {
            current_bits: current.value().to_bits(),
            fingerprint,
        }
    }

    /// Retargets the workspace (and any factorization) to `current`.
    fn prepare(&mut self, stamped: &StampedSystem, current: Amperes) -> Result<(), OptError> {
        let key = self.cache_key(current);
        if self.factored.as_ref().is_some_and(|(k, _)| *k == key) {
            return Ok(());
        }
        // Drop the previous factorization before touching the workspace: if
        // retargeting or factoring fails below, a surviving entry would key
        // the old current against the failed probe's matrix/power, and a
        // later solve at that current would cache-hit into wrong data.
        self.factored = None;
        self.ws.set_current(current)?;
        let fact = match self.resolved {
            ResolvedBackend::Cholesky if self.strategy == FactorStrategy::RankKUpdate => {
                self.factor_via_update(stamped, current)?
            }
            ResolvedBackend::Cholesky => factor_placement(stamped, current)?,
            ResolvedBackend::DenseCholesky => {
                FactoredSystem::factor(&self.ws.matrix().to_dense(), self.resolved)
                    .map_err(|e| runaway_from(current, e))?
            }
            ResolvedBackend::SparseCg(settings) => FactoredSystem::Sparse {
                matrix: self.ws.matrix().clone(),
                settings,
            },
        };
        self.factored = Some((key, fact));
        Ok(())
    }

    /// Produces the factorization at `current` by rank-k update over the
    /// shared `i = 0` base factor (a sparse Cholesky of the whole network on
    /// the model's pattern), falling back to the placement factor of
    /// [`FactorStrategy::Refactor`] when the update is ill-conditioned or its
    /// condition estimate exceeds [`UPDATE_CONDITION_LIMIT`] (the fallback
    /// policy of DESIGN.md §15).
    ///
    /// The workspace has already been retargeted to `current` by `prepare`,
    /// so its power vector matches the probe; only the base-factor build
    /// temporarily rewinds the current to zero.
    fn factor_via_update(
        &mut self,
        stamped: &StampedSystem,
        current: Amperes,
    ) -> Result<FactoredSystem, OptError> {
        let updatable = match self.updatable.clone() {
            Some(u) => u,
            None => {
                self.ws.set_current(Amperes(0.0))?;
                let pattern = stamped.model().cholesky_pattern()?;
                let base = Cholesky::factor_csr_with(pattern, self.ws.matrix())
                    .map_err(|e| runaway_from(Amperes(0.0), e))?;
                let nodes = self.ws.placement_delta();
                let u =
                    Arc::new(UpdatableFactor::new(base, nodes.nodes()).map_err(OptError::from)?);
                self.ws.set_current(current)?;
                self.updatable = Some(Arc::clone(&u));
                u
            }
        };
        let update = DiagonalUpdate::new(self.ws.placement_delta().deltas_at(current))
            .map_err(OptError::from)?;
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

    /// Returns [`OptError::Cancelled`] once this core's token is raised.
    fn check_cancel(&self) -> Result<(), OptError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(OptError::from(LinalgError::Cancelled { iterations: 0 }));
        }
        Ok(())
    }

    /// Solves against an arbitrary right-hand side at `current`, falling
    /// back to the placement factor if the CG backend stalls or needs an
    /// authoritative definiteness verdict.
    fn solve_raw(
        &mut self,
        stamped: &StampedSystem,
        current: Amperes,
        rhs: &[f64],
    ) -> Result<RawSolve, OptError> {
        self.check_cancel()?;
        self.prepare(stamped, current)?;
        #[allow(clippy::expect_used)]
        let (_, fact) = self
            .factored
            .as_ref()
            // tecopt:allow(panic-in-kernel) — prepare() just populated it
            .expect("prepare populated the factorization");
        match fact.solve_with_cancel(rhs, self.cancel.as_ref()) {
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
                let chol = factor_placement(stamped, current)?;
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

    /// Solves against the workspace's own power vector `p(i)`. Through
    /// the placement factor, `y_A = G_AA⁻¹·p_A` is solved once per core and
    /// a solve is the `k×k` block plus `θ_A = y_A − X·θ_B`.
    fn solve_power(
        &mut self,
        stamped: &StampedSystem,
        current: Amperes,
    ) -> Result<RawSolve, OptError> {
        self.check_cancel()?;
        self.prepare(stamped, current)?;
        let Some((_, FactoredSystem::Shifted(fact))) = &self.factored else {
            let rhs = self.ws.power().to_vec();
            return self.solve_raw(stamped, current, &rhs);
        };
        let power = self.ws.power();
        let lead = match &mut self.leading {
            Some(lead) => lead,
            empty => empty.insert(fact.family().leading_solve(power)?),
        };
        Ok(RawSolve {
            theta: fact.solve_with(lead, power)?,
            condition_estimate: fact.condition_estimate(),
            method: SolveMethod::Cholesky,
        })
    }

    /// Solves several right-hand sides at one current through one
    /// factorization, using the blocked multi-RHS triangular sweeps on the
    /// Cholesky (and rank-k-updated) representations. The CG backend has
    /// no shared-factor economy to exploit, so it delegates to per-column
    /// [`SolverCore::solve_raw`] calls — fallback behavior included.
    fn solve_raw_many(
        &mut self,
        stamped: &StampedSystem,
        current: Amperes,
        rhs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, OptError> {
        self.check_cancel()?;
        self.prepare(stamped, current)?;
        let sparse = matches!(
            self.factored.as_ref().map(|(_, f)| f.method()),
            Some(SolveMethod::SparseCg)
        );
        if sparse {
            return rhs
                .iter()
                .map(|b| Ok(self.solve_raw(stamped, current, b)?.theta))
                .collect();
        }
        #[allow(clippy::expect_used)]
        let (_, fact) = self
            .factored
            .as_ref()
            // tecopt:allow(panic-in-kernel) — prepare() just populated it
            .expect("prepare populated the factorization");
        let outs = fact.solve_many(rhs).map_err(|e| runaway_from(current, e))?;
        Ok(outs.into_iter().map(|o| o.x).collect())
    }
}

/// The placement factor at `current` (the workspace's matrix, factored
/// through [`StampedSystem::placement_factor`]).
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

/// A per-caller solving handle over one [`CoolingSystem`].
///
/// Owns a private solver core (workspace + factorization cache), so
/// repeated probes neither reassemble `G` nor contend on the system's
/// internal mutex — this is what the parallel sweeps hand to each worker
/// thread. Results are identical to [`CoolingSystem::solve`] bit for bit.
#[derive(Debug)]
pub struct SteadySolver<'a> {
    system: &'a CoolingSystem,
    core: SolverCore,
}

impl Clone for SteadySolver<'_> {
    fn clone(&self) -> Self {
        SteadySolver {
            system: self.system,
            core: self.core.clone(),
        }
    }
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
    /// this handle and its clones — the system's shared solver cache never
    /// carries one.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.core.cancel = Some(token);
        self
    }

    /// Routes this handle's factorizations through `strategy`.
    ///
    /// [`FactorStrategy::RankKUpdate`] turns per-current refactorizations
    /// into rank-k Sherman–Morrison–Woodbury corrections over one cached
    /// `i = 0` factor — the fast path behind the PR-7 greedy-deployment
    /// speedup. The strategy is private to this handle and its clones; the
    /// shared [`CoolingSystem::solve`] cache always refactors, and the
    /// factorization cache key distinguishes the two representations, so
    /// switching strategies can never serve a stale updated factor to a
    /// plain probe (see the PR-7 cache-poisoning regression tests).
    #[must_use]
    pub fn with_strategy(mut self, strategy: FactorStrategy) -> Self {
        self.core.strategy = strategy;
        self
    }

    /// The factorization strategy this handle routes new currents through.
    pub fn strategy(&self) -> FactorStrategy {
        self.core.strategy
    }

    /// Rank-k updates this handle applied in place of full
    /// refactorizations (diagnostic; 0 under [`FactorStrategy::Refactor`]).
    pub fn rank_k_updates(&self) -> usize {
        self.core.updates_applied
    }

    /// Full refactorizations forced by a degraded update condition
    /// estimate — the automatic fallback of DESIGN.md §15.
    pub fn refactor_fallbacks(&self) -> usize {
        self.core.refactor_fallbacks
    }

    /// Solves the steady state at supply current `i` — same contract as
    /// [`CoolingSystem::solve`], minus the lock and the reassembly.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CoolingSystem::solve`].
    pub fn solve(&mut self, current: Amperes) -> Result<SolvedState, OptError> {
        let raw = self.core.solve_power(&self.system.stamped, current)?;
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
        Ok(self
            .core
            .solve_raw(&self.system.stamped, current, rhs)?
            .theta)
    }

    /// Solves `(G − i·D)·x_j = rhs_j` for several independent right-hand
    /// sides through one factorization — the batched form behind the
    /// gradient's paired solves and the multi-column response probes.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CoolingSystem::solve`].
    pub(crate) fn solve_rhs_many(
        &mut self,
        current: Amperes,
        rhs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, OptError> {
        self.core.solve_raw_many(&self.system.stamped, current, rhs)
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
            cache: Mutex::new(SolverCache::default()),
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
    /// greedy-deployment iteration escaped the override).
    ///
    /// # Errors
    ///
    /// Same contract as [`CoolingSystem::new`].
    pub fn with_tiles(&self, tec_tiles: &[TileIndex]) -> Result<CoolingSystem, OptError> {
        CoolingSystem::new(
            self.stamped.model().config(),
            self.stamped.params().clone(),
            tec_tiles,
            self.tile_powers.clone(),
        )
        .map(|s| s.with_backend(self.backend))
    }

    /// Returns this system routed through `backend` (the solves of the copy
    /// use it; the copy's cache starts cold).
    pub fn with_backend(mut self, backend: SolverBackend) -> CoolingSystem {
        self.set_backend(backend);
        self
    }

    /// Switches the solver backend in place, invalidating any cached
    /// factorization/workspace state.
    pub fn set_backend(&mut self, backend: SolverBackend) {
        self.backend = backend;
        self.lock_cache().core = None;
    }

    /// The configured solver backend (before `Auto` is resolved).
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// Replaces the worst-case power profile in place, keeping the package
    /// and deployment. The cached solver workspace is invalidated so the
    /// next solve re-assembles `p` (and only then).
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
        self.lock_cache().core = None;
        Ok(())
    }

    /// How many times the shared solver cache (re)assembled its workspace —
    /// 1 after any number of [`CoolingSystem::solve`] calls, +1 per
    /// mutation ([`CoolingSystem::set_tile_powers`] /
    /// [`CoolingSystem::set_backend`]). Private [`SteadySolver`] handles do
    /// not count. Diagnostic for the assembly-reuse regression tests.
    pub fn workspace_assemblies(&self) -> usize {
        self.lock_cache().assemblies
    }

    /// Creates a private solving handle with its own workspace and
    /// factorization cache — the cheap way to run many probes (line
    /// searches, sweeps) without reassembling `G` or taking the shared
    /// lock per solve.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures ([`OptError::Device`] /
    /// [`OptError::PowerLengthMismatch`]) that [`CoolingSystem::solve`]
    /// would also report.
    pub fn solver(&self) -> Result<SteadySolver<'_>, OptError> {
        // Adopt the shared core when it exists so the handle starts warm;
        // otherwise build a fresh one without touching the shared cache.
        let existing = self.lock_cache().core.clone();
        let core = match existing {
            Some(core) => core,
            None => SolverCore::build(self)?,
        };
        Ok(SteadySolver { system: self, core })
    }

    /// Assembles the shared solver core if it is still cold, so subsequent
    /// [`CoolingSystem::solver`] calls clone it instead of rebuilding —
    /// the pre-flight step of the parallel sweeps, which guarantees each
    /// worker's handle construction cannot fail.
    pub(crate) fn warm_solver_cache(&self) -> Result<(), OptError> {
        self.with_core(|_, _| Ok(()))
    }

    fn lock_cache(&self) -> MutexGuard<'_, SolverCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` against the shared cached solver core, building it on first
    /// use.
    fn with_core<R>(
        &self,
        f: impl FnOnce(&mut SolverCore, &StampedSystem) -> Result<R, OptError>,
    ) -> Result<R, OptError> {
        let mut cache = self.lock_cache();
        if cache.core.is_none() {
            cache.core = Some(SolverCore::build(self)?);
            cache.assemblies += 1;
        }
        #[allow(clippy::expect_used)]
        // tecopt:allow(panic-in-kernel) — populated on the line just above
        let core = cache.core.as_mut().expect("core populated just above");
        f(core, &self.stamped)
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

    /// Solves the steady state at supply current `i`.
    ///
    /// The `(G, p)` workspace is built once per system and retargeted in
    /// place per probe; the linear solve goes through the configured
    /// [`SolverBackend`] (by default the placement factor of
    /// [`StampedSystem::placement_factor`], which refactors only the `k×k`
    /// trailing block on the TEC terminal nodes per current; the dense
    /// oracle, or explicitly chosen Jacobi-preconditioned CG with a
    /// Cholesky fallback). Any
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
        let raw = self.with_core(|core, stamped| core.solve_power(stamped, current))?;
        self.finish_raw(current, raw)
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

    /// Solves the auxiliary systems needed by the convexity machinery:
    /// `x = (G − i·D)⁻¹ · rhs` for an arbitrary right-hand side. Shares the
    /// cached assembly and factorization with [`CoolingSystem::solve`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CoolingSystem::solve`].
    pub(crate) fn solve_rhs(&self, current: Amperes, rhs: &[f64]) -> Result<Vec<f64>, OptError> {
        self.with_core(|core, stamped| Ok(core.solve_raw(stamped, current, rhs)?.theta))
    }

    /// Batched form of [`CoolingSystem::solve_rhs`]: several independent
    /// right-hand sides against one factorization at `current`, via the
    /// blocked multi-RHS triangular sweeps on the dense backend.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CoolingSystem::solve`].
    pub(crate) fn solve_rhs_many(
        &self,
        current: Amperes,
        rhs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, OptError> {
        self.with_core(|core, stamped| core.solve_raw_many(stamped, current, rhs))
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

    /// The placement factor a core's cached factorization belongs to.
    fn family_of(core: &SolverCore) -> Arc<tecopt_linalg::ShiftedCholesky> {
        match core.factored.as_ref().map(|(_, f)| f) {
            Some(FactoredSystem::Shifted(f)) => Arc::clone(f.family()),
            other => panic!("expected a placement factor, got {other:?}"),
        }
    }

    fn shared_family(system: &CoolingSystem) -> Arc<tecopt_linalg::ShiftedCholesky> {
        family_of(system.lock_cache().core.as_ref().expect("warm cache"))
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
        system.solve(Amperes(1.0)).unwrap();
        assert!(Arc::ptr_eq(&shared_family(&system), &block));

        // Two private handles, one adopting the warm core, both solving at
        // new currents.
        for current in [2.0, 3.0] {
            let mut handle = system.solver().unwrap();
            handle.solve(Amperes(current)).unwrap();
            assert!(Arc::ptr_eq(&family_of(&handle.core), &block));
        }

        // A clone starts with a cold cache but the same placement: its
        // shared core and a handle built from scratch both reuse the block.
        let clone = system.clone();
        let mut cold = clone.solver().unwrap();
        cold.solve(Amperes(1.5)).unwrap();
        assert!(Arc::ptr_eq(&family_of(&cold.core), &block));
        clone.solve(Amperes(2.5)).unwrap();
        assert!(Arc::ptr_eq(&shared_family(&clone), &block));
        early.solve(Amperes(0.5)).unwrap();
        assert!(Arc::ptr_eq(&shared_family(&early), &block));

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
        // core (and the `y_A` it cached for the old profile) is dropped.
        assert!(system.lock_cache().core.as_ref().unwrap().leading.is_some());
        system.set_tile_powers(vec![Watts(0.1); 16]).unwrap();
        assert!(system.lock_cache().core.is_none());
        system.solve(Amperes(1.0)).unwrap();
        assert!(Arc::ptr_eq(&shared_family(&system), &block));

        // A new tile set is a new placement with its own block.
        let other = system.with_tiles(&[TileIndex::new(2, 2)]).unwrap();
        other.solve(Amperes(1.0)).unwrap();
        let fresh = shared_family(&other);
        assert!(!Arc::ptr_eq(&fresh, &block));
        assert!(Arc::ptr_eq(
            &fresh,
            other.stamped().placement_factor().unwrap()
        ));
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
    fn workspace_is_assembled_once_across_solves() {
        // Regression: `solve` used to clone + restamp `G` and rebuild `p`
        // on every call. The assembly must now happen once and be
        // retargeted in place per probe.
        let s = system(&[TileIndex::new(1, 1)]);
        assert_eq!(s.workspace_assemblies(), 0);
        let first = s.solve(Amperes(2.0)).unwrap();
        for i in [0.0, 1.0, 2.0, 3.5, 1.0] {
            s.solve(Amperes(i)).unwrap();
        }
        let ones = vec![1.0; first.node_temperatures().len()];
        s.solve_rhs(Amperes(2.0), &ones).unwrap();
        assert_eq!(s.workspace_assemblies(), 1);
    }

    #[test]
    fn set_tile_powers_invalidates_cache_and_matches_fresh_system() {
        let mut s = system(&[TileIndex::new(1, 1)]);
        s.solve(Amperes(2.0)).unwrap();
        assert_eq!(s.workspace_assemblies(), 1);

        let mut new_powers = hotspot_powers();
        new_powers[10] = Watts(0.9);
        s.set_tile_powers(new_powers.clone()).unwrap();
        let updated = s.solve(Amperes(2.0)).unwrap();
        assert_eq!(s.workspace_assemblies(), 2);

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
        // Regression: `prepare` used to re-stamp the workspace to the failed
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
        // The handle's probes must not count as shared-cache assemblies.
        assert_eq!(s.workspace_assemblies(), 1);
    }

    #[test]
    fn clone_starts_with_a_cold_cache() {
        let s = system(&[TileIndex::new(1, 1)]);
        s.solve(Amperes(1.0)).unwrap();
        let c = s.clone();
        assert_eq!(c.workspace_assemblies(), 0);
        let a = s.solve(Amperes(1.0)).unwrap();
        let b = c.solve(Amperes(1.0)).unwrap();
        assert_eq!(a.peak().value(), b.peak().value());
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
            matches!(fast.core.factored, Some((_, FactoredSystem::Updated(_)))),
            "fast path should have cached an updated factor"
        );
        // The two strategies must never agree on a cache key at one current.
        let updated_key = fast.core.cache_key(i);
        fast.core.strategy = FactorStrategy::Refactor;
        let plain_key = fast.core.cache_key(i);
        assert_ne!(updated_key, plain_key);
        assert_eq!(updated_key.current_bits, plain_key.current_bits);

        // Re-solving through the plain strategy must refactor (structural
        // proof: the cached entry is now a plain Cholesky factor) and agree
        // with the shared path bit for bit.
        let mut plain = SteadySolver {
            system: &s,
            core: fast.core,
        };
        let again = plain.solve(i).unwrap();
        assert!(
            matches!(plain.core.factored, Some((_, FactoredSystem::Shifted(_)))),
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
            let batched = s.solve_rhs_many(Amperes(1.5), &cols).unwrap();
            assert_eq!(batched.len(), cols.len());
            for (b, col) in batched.iter().zip(&cols) {
                let single = s.solve_rhs(Amperes(1.5), col).unwrap();
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
