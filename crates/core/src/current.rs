//! Supply-current optimization: Problem 2 (peak tile temperature
//! minimization) of the paper.
//!
//! Under Conjecture 1 every tile temperature `θ_k(i)` is convex on
//! `[0, λ_m)` (Theorem 3 + Eq. 10), so the objective
//! `max_{k ∈ SIL} θ_k(i)` is convex and in particular unimodal. Two back
//! ends are provided:
//!
//! - [`CurrentMethod::GoldenSection`] (default) exploits unimodality
//!   directly and needs only steady-state solves,
//! - [`CurrentMethod::GradientDescent`] reproduces the paper's method
//!   (Sec. V.C.3, "we employ the gradient descent method") using the exact
//!   subgradient `dθ/di = H·D·H·p + H·p′(i)` evaluated with two extra
//!   triangular solves, plus a backtracking line search.

use crate::{runaway_limit, CoolingSystem, FactorStrategy, OptError, SolvedState, SteadySolver};
use tecopt_units::Amperes;

/// Optimization back end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurrentMethod {
    /// Golden-section search over the unimodal objective.
    #[default]
    GoldenSection,
    /// Projected subgradient descent with backtracking (the paper's choice).
    GradientDescent,
}

/// Controls for [`optimize_current`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentSettings {
    /// Back end to use.
    pub method: CurrentMethod,
    /// Absolute current tolerance in amperes: the search stops when the
    /// bracket (or step) is below this.
    pub tolerance: f64,
    /// Hard cap on steady-state solves.
    pub max_evaluations: usize,
    /// Fraction of `λ_m` used as the search ceiling (staying strictly
    /// inside the runaway interval).
    pub ceiling_fraction: f64,
    /// Relative tolerance of the `λ_m` bisection.
    pub lambda_tolerance: f64,
}

impl Default for CurrentSettings {
    fn default() -> CurrentSettings {
        CurrentSettings {
            method: CurrentMethod::GoldenSection,
            tolerance: 1e-3,
            max_evaluations: 200,
            ceiling_fraction: 0.995,
            lambda_tolerance: 1e-9,
        }
    }
}

/// The result of a current optimization.
#[derive(Debug, Clone)]
pub struct CurrentOptimum {
    state: SolvedState,
    lambda: Amperes,
    evaluations: usize,
    probes: usize,
    method: CurrentMethod,
}

impl CurrentOptimum {
    /// The optimal supply current (`I_opt` of Table I).
    pub fn current(&self) -> Amperes {
        self.state.current()
    }

    /// The solved steady state at the optimum (peak temperature, TEC power).
    pub fn state(&self) -> &SolvedState {
        &self.state
    }

    /// The runaway limit the search was bounded by.
    pub fn lambda(&self) -> Amperes {
        self.lambda
    }

    /// Steady-state solves consumed.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Bracket probes of the `λ_m` search that bounded this optimization,
    /// with the base factorization counted as the `i = 0` probe.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Which back end produced this optimum.
    pub fn method(&self) -> CurrentMethod {
        self.method
    }

    /// Internal constructor for the deployment layer.
    pub(crate) fn from_parts(
        state: SolvedState,
        lambda: Amperes,
        evaluations: usize,
        method: CurrentMethod,
    ) -> CurrentOptimum {
        CurrentOptimum {
            state,
            lambda,
            evaluations,
            probes: 0,
            method,
        }
    }
}

/// Minimizes the peak silicon tile temperature over `i ∈ [0, λ_m)`.
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] for a passive system.
/// - [`OptError::InvalidParameter`] for nonpositive tolerances or a ceiling
///   fraction outside `(0, 1)`.
/// - [`OptError::BudgetExhausted`] if the golden-section bracket is still
///   wider than `tolerance` when `max_evaluations` solves have been spent —
///   the hard cap that keeps adversarial tolerance/budget combinations from
///   looping; the gradient back end instead reports its best iterate, as a
///   descent method every iterate is feasible.
pub fn optimize_current(
    system: &CoolingSystem,
    settings: CurrentSettings,
) -> Result<CurrentOptimum, OptError> {
    optimize_current_with(system, settings, FactorStrategy::Refactor)
}

/// [`optimize_current`] routed through a [`FactorStrategy`]:
/// [`FactorStrategy::Refactor`] is exactly `optimize_current` (bit for
/// bit), while [`FactorStrategy::RankKUpdate`] replaces the line-search
/// Cholesky factorizations with rank-k updates over one cached `i = 0`
/// factor — the per-placement evaluation the fast greedy deployment runs.
/// Both strategies find `λ_m` with the same [`runaway_limit`] search.
///
/// # Errors
///
/// Same contract as [`optimize_current`].
pub fn optimize_current_with(
    system: &CoolingSystem,
    settings: CurrentSettings,
    strategy: FactorStrategy,
) -> Result<CurrentOptimum, OptError> {
    if system.device_count() == 0 {
        return Err(OptError::NoDevicesDeployed);
    }
    if settings.tolerance <= 0.0 || settings.tolerance.is_nan() {
        return Err(OptError::InvalidParameter(format!(
            "current tolerance must be positive, got {}",
            settings.tolerance
        )));
    }
    if !(settings.ceiling_fraction > 0.0 && settings.ceiling_fraction < 1.0) {
        return Err(OptError::InvalidParameter(format!(
            "ceiling fraction must be in (0, 1), got {}",
            settings.ceiling_fraction
        )));
    }
    if settings.max_evaluations == 0 {
        return Err(OptError::InvalidParameter(
            "max_evaluations must be positive".into(),
        ));
    }
    let lim = runaway_limit(system, settings.lambda_tolerance)?;
    let ceiling = lim.search_ceiling(settings.ceiling_fraction)?.value();
    let lambda = lim.lambda();
    let probes = lim.probes();

    // One solver handle for the whole line search: `G` and `p` are
    // assembled once, and consecutive probes at the same current (the
    // gradient's extra right-hand sides) reuse the factorization.
    let mut solver = system.solver()?.with_strategy(strategy);
    let mut opt = match settings.method {
        CurrentMethod::GoldenSection => golden_section(&mut solver, ceiling, lambda, settings)?,
        CurrentMethod::GradientDescent => gradient_descent(&mut solver, ceiling, lambda, settings)?,
    };
    opt.probes = probes;
    Ok(opt)
}

fn golden_section(
    system: &mut SteadySolver<'_>,
    ceiling: f64,
    lambda: Amperes,
    settings: CurrentSettings,
) -> Result<CurrentOptimum, OptError> {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut evals = 0usize;
    let mut best: Option<SolvedState> = None;

    fn consider(best: &mut Option<SolvedState>, state: SolvedState) -> f64 {
        let peak = state.peak().value();
        if best.as_ref().is_none_or(|b| peak < b.peak().value()) {
            *best = Some(state);
        }
        peak
    }

    let mut a = 0.0_f64;
    let mut b = ceiling;
    // Seed the two interior probes.
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    evals += 1;
    let mut fc = consider(&mut best, system.solve(Amperes(c))?);
    evals += 1;
    let mut fd = consider(&mut best, system.solve(Amperes(d))?);
    // Also probe the endpoint once so i = 0 wins when devices cannot help.
    evals += 1;
    consider(&mut best, system.solve(Amperes(a))?);
    while (b - a) > settings.tolerance && evals < settings.max_evaluations {
        if fc <= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            evals += 1;
            fc = consider(&mut best, system.solve(Amperes(c))?);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            evals += 1;
            fd = consider(&mut best, system.solve(Amperes(d))?);
        }
    }
    if (b - a) > settings.tolerance {
        // Ran out of evaluations with the bracket still wider than the
        // requested tolerance: report exhaustion instead of silently
        // returning an under-converged optimum.
        return Err(OptError::BudgetExhausted {
            spent: evals,
            budget: settings.max_evaluations,
        });
    }
    let state = match best {
        Some(s) => s,
        None => system.solve(Amperes(0.0))?,
    };
    Ok(CurrentOptimum {
        state,
        lambda,
        evaluations: evals,
        probes: 0,
        method: CurrentMethod::GoldenSection,
    })
}

fn gradient_descent(
    system: &mut SteadySolver<'_>,
    ceiling: f64,
    lambda: Amperes,
    settings: CurrentSettings,
) -> Result<CurrentOptimum, OptError> {
    let mut evals = 0usize;
    // Start in the interior so the subgradient is informative.
    let mut i = 0.25 * ceiling;
    let mut state = {
        evals += 1;
        system.solve(Amperes(i))?
    };
    let mut step = 0.25 * ceiling;
    let min_step = settings.tolerance * 1e-3;

    while evals < settings.max_evaluations && step > min_step {
        let grad = peak_gradient(system, &state)?;
        if grad.abs() < 1e-12 {
            break;
        }
        let direction = -grad.signum();
        let mut advance = step.min(settings.tolerance.max(step));
        let mut moved = false;
        // Backtracking line search along the descent direction.
        while advance > min_step && evals < settings.max_evaluations {
            let trial = (i + direction * advance).clamp(0.0, ceiling);
            if (trial - i).abs() < min_step {
                break;
            }
            evals += 1;
            let trial_state = system.solve(Amperes(trial))?;
            if trial_state.peak() < state.peak() {
                i = trial;
                state = trial_state;
                moved = true;
                break;
            }
            advance *= 0.5;
        }
        if moved {
            step = (step * 1.5).min(0.25 * ceiling);
        } else {
            step *= 0.5;
        }
        if step < settings.tolerance && !moved {
            break;
        }
    }
    Ok(CurrentOptimum {
        state,
        lambda,
        evaluations: evals,
        probes: 0,
        method: CurrentMethod::GradientDescent,
    })
}

/// Index of the largest finite value — a NaN can never win.
///
/// The old implementation compared with
/// `partial_cmp().unwrap_or(Equal)`, under which a NaN anywhere in the
/// slice silently scrambled the ordering (whichever operand came first
/// "tied", so a NaN could be reported as the maximum). Filtering NaN
/// first and comparing with [`f64::total_cmp`] makes the argmax
/// deterministic; `None` means every value was NaN (or the slice was
/// empty).
pub(crate) fn nan_safe_argmax(values: &[f64]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_nan())
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, _)| k)
}

/// Exact derivative of the peak tile temperature with respect to the supply
/// current, via `dθ/di = H·D·H·p + H·p′(i)` evaluated at the argmax tile.
fn peak_gradient(solver: &mut SteadySolver<'_>, state: &SolvedState) -> Result<f64, OptError> {
    let i = state.current();
    let stamped = solver.system().stamped();
    let model = stamped.model();
    // theta = H p (already solved in `state`); v = D .* theta.
    let theta: Vec<f64> = state
        .node_temperatures()
        .iter()
        .map(|t| t.value())
        .collect();
    let d = stamped.d_diagonal();
    let v: Vec<f64> = theta.iter().zip(d).map(|(t, dk)| t * dk).collect();
    // p'(i): d/di of the Joule sources r i^2 / 2 -> r i at junction nodes.
    let mut dp = vec![0.0; model.node_count()];
    let ri = stamped.params().resistance().value() * i.value();
    for &k in stamped.joule_nodes() {
        dp[k] = ri;
    }
    let silicon: Vec<f64> = state
        .silicon_temperatures()
        .iter()
        .map(|t| t.value())
        .collect();
    let k_star = nan_safe_argmax(&silicon)
        .ok_or_else(|| OptError::InvalidParameter("system has no silicon tiles".into()))?;
    let node = model.silicon_nodes()[k_star].index();
    // The two right-hand sides are independent, so they share one blocked
    // multi-RHS sweep through the factorization: w = H·D·H·p, x = H·p′.
    let sols = solver.solve_rhs_many(i, &[v, dp])?;
    let [w, x] = sols.as_slice() else {
        return Err(OptError::InvalidParameter(
            "batched gradient solve returned the wrong number of columns".into(),
        ));
    };
    Ok(w[node] + x[node])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_device::TecParams;
    use tecopt_thermal::{PackageConfig, TileIndex};
    use tecopt_units::Watts;

    fn system(tiles: &[TileIndex]) -> CoolingSystem {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let mut powers = vec![Watts(0.05); 16];
        powers[5] = Watts(0.7);
        CoolingSystem::new(&config, TecParams::superlattice_thin_film(), tiles, powers).unwrap()
    }

    #[test]
    fn passive_system_rejected() {
        assert!(matches!(
            optimize_current(&system(&[]), CurrentSettings::default()),
            Err(OptError::NoDevicesDeployed)
        ));
    }

    #[test]
    fn optimum_beats_endpoints() {
        let s = system(&[TileIndex::new(1, 1)]);
        let opt = optimize_current(&s, CurrentSettings::default()).unwrap();
        let at_zero = s.solve(Amperes(0.0)).unwrap();
        let near_limit = s.solve(Amperes(opt.lambda().value() * 0.95)).unwrap();
        assert!(opt.state().peak() <= at_zero.peak());
        assert!(opt.state().peak() < near_limit.peak());
        assert!(opt.current().value() > 0.0);
        assert!(opt.current().value() < opt.lambda().value());
        assert!(opt.evaluations() > 0);
    }

    #[test]
    fn both_methods_agree() {
        let s = system(&[TileIndex::new(1, 1), TileIndex::new(1, 2)]);
        let gold = optimize_current(
            &s,
            CurrentSettings {
                method: CurrentMethod::GoldenSection,
                ..CurrentSettings::default()
            },
        )
        .unwrap();
        let grad = optimize_current(
            &s,
            CurrentSettings {
                method: CurrentMethod::GradientDescent,
                max_evaluations: 400,
                ..CurrentSettings::default()
            },
        )
        .unwrap();
        assert!(
            (gold.state().peak().value() - grad.state().peak().value()).abs() < 0.05,
            "golden {:?} vs gradient {:?}",
            gold.state().peak(),
            grad.state().peak()
        );
        assert_eq!(gold.method(), CurrentMethod::GoldenSection);
        assert_eq!(grad.method(), CurrentMethod::GradientDescent);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let s = system(&[TileIndex::new(1, 1)]);
        let i = Amperes(2.0);
        let state = s.solve(i).unwrap();
        let mut solver = s.solver().unwrap();
        let g = peak_gradient(&mut solver, &state).unwrap();
        let h = 1e-5;
        let fp = s.solve(Amperes(i.value() + h)).unwrap().peak().value();
        let fm = s.solve(Amperes(i.value() - h)).unwrap().peak().value();
        let fd = (fp - fm) / (2.0 * h);
        assert!(
            (g - fd).abs() < 1e-4 * fd.abs().max(1.0),
            "analytic {g} vs finite-difference {fd}"
        );
    }

    #[test]
    fn rank_k_strategy_reproduces_the_optimum() {
        // The fast path probes at slightly different currents (its λ_m
        // bracket agrees with the dense search to ~1e-8 relative, and the
        // golden-section probes scale with the ceiling), so the comparison
        // is at the optimum level: same current to within the search
        // tolerance, same peak to well under a millikelvin.
        let s = system(&[TileIndex::new(1, 1), TileIndex::new(1, 2)]);
        let settings = CurrentSettings::default();
        let plain = optimize_current(&s, settings).unwrap();
        let fast = optimize_current_with(&s, settings, FactorStrategy::RankKUpdate).unwrap();
        let di = (plain.current().value() - fast.current().value()).abs();
        assert!(di <= 2.0 * settings.tolerance, "current drift {di}");
        let dp = (plain.state().peak().value() - fast.state().peak().value()).abs();
        assert!(dp < 1e-6, "peak drift {dp}");
        let dl = (plain.lambda().value() - fast.lambda().value()).abs() / plain.lambda().value();
        assert!(dl < 1e-8, "λ drift {dl}");
    }

    #[test]
    fn nan_cannot_win_the_argmax() {
        // Regression for the old `partial_cmp().unwrap_or(Equal)` argmax:
        // `f64::total_cmp` alone ranks +NaN above +∞, so the fix must
        // filter NaN before comparing, never crown it.
        assert_eq!(nan_safe_argmax(&[1.0, f64::NAN, 3.0, 2.0]), Some(2));
        assert_eq!(nan_safe_argmax(&[f64::NAN, f64::NAN, -1.0]), Some(2));
        assert_eq!(nan_safe_argmax(&[f64::NAN, f64::INFINITY]), Some(1));
        assert_eq!(nan_safe_argmax(&[f64::NAN, f64::NAN]), None);
        assert_eq!(nan_safe_argmax(&[]), None);
        // Ties resolve to the last maximal index (max_by keeps the later
        // of equal elements) — deterministic either way.
        assert_eq!(nan_safe_argmax(&[2.0, 2.0]), Some(1));
    }

    #[test]
    fn settings_validation() {
        let s = system(&[TileIndex::new(1, 1)]);
        for bad in [
            CurrentSettings {
                tolerance: 0.0,
                ..CurrentSettings::default()
            },
            CurrentSettings {
                ceiling_fraction: 1.0,
                ..CurrentSettings::default()
            },
            CurrentSettings {
                max_evaluations: 0,
                ..CurrentSettings::default()
            },
        ] {
            assert!(matches!(
                optimize_current(&s, bad),
                Err(OptError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn adversarial_tolerance_exhausts_budget_instead_of_hanging() {
        // A tolerance below the bracket's floating-point resolution can never
        // be met; the search must stop at the evaluation cap with a
        // structured error, not spin or return an under-converged optimum.
        let s = system(&[TileIndex::new(1, 1)]);
        let err = optimize_current(
            &s,
            CurrentSettings {
                tolerance: 1e-18,
                max_evaluations: 40,
                ..CurrentSettings::default()
            },
        )
        .unwrap_err();
        match err {
            OptError::BudgetExhausted { spent, budget } => {
                assert_eq!(budget, 40);
                assert!(spent <= budget);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn optimum_reports_search_diagnostics() {
        let s = system(&[TileIndex::new(1, 1)]);
        let opt = optimize_current(&s, CurrentSettings::default()).unwrap();
        assert!(opt.probes() > 0, "λ_m search probes must be surfaced");
    }

    #[test]
    fn objective_is_unimodal_over_sample_grid() {
        // Empirical support for the convexity theory on a real instance:
        // sample peak(i) and check there is a single descending-then-
        // ascending pattern (no second dip).
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = crate::runaway_limit(&s, 1e-9).unwrap();
        let lam = lim.feasible().value();
        let samples: Vec<f64> = (0..30)
            .map(|k| {
                s.solve(Amperes(lam * 0.98 * k as f64 / 29.0))
                    .unwrap()
                    .peak()
                    .value()
            })
            .collect();
        let mut rising = false;
        let mut violations = 0;
        for w in samples.windows(2) {
            if w[1] > w[0] + 1e-9 {
                rising = true;
            } else if rising && w[1] < w[0] - 1e-6 {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "peak(i) is not unimodal: {samples:?}");
    }
}
