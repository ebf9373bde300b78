//! The crash-safe exploration engine.
//!
//! [`Explorer::explore`] drives a [`DesignSpace`] end to end: analytical
//! first-cut pruning, per-candidate shared-current optimization (golden
//! section on the placement factor: a `k×k` block per current over a
//! leading block — `G_AA` factored, `X = G_AA⁻¹·G_AB` — that one
//! [`LeadingBlockCache`] per call shares between every candidate with the
//! same `G_AA` and `G_AB`, so the thickness levels of one mask and
//! contact, and the passive network of every greedy deployment, factor
//! it once), quarantine of
//! pathological candidates, and a deterministic Pareto front over peak
//! temperature vs. total TEC power. Attach a checkpoint path to the
//! [`RunContext`] and every unit of work flows through the durable
//! [`Ledger`] — a process killed at any instant resumes with zero
//! duplicated and zero lost evaluations, and the finished front is
//! bit-identical to an uninterrupted single-threaded run.

use crate::ledger::{EvalRecord, Ledger, LedgerState};
use crate::pareto::{pareto_front, ParetoPoint};
use crate::quarantine::{retryable, PartialPrefix, QuarantineReason, QuarantineRecord};
use crate::space::{Candidate, DesignSpace, Placement};
use std::collections::BTreeMap;
use std::sync::Arc;
use tecopt::parallel::{par_map_init_isolated, ItemOutcome};
use tecopt::record::{fingerprint, hex_f64};
use tecopt::{
    greedy_deploy_supervised, optimize_current_with, CoolingSystem, CurrentSettings, DeployFailure,
    DeploySettings, FactorStrategy, OptError, RunContext,
};
use tecopt_linalg::LeadingBlockCache;
use tecopt_units::{Amperes, Celsius, Kelvin, Watts};

/// Knobs of one exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreSettings {
    /// Per-candidate shared-current optimization settings.
    pub current: CurrentSettings,
    /// How per-candidate solves factor `G − i·D`. Defaults to
    /// [`FactorStrategy::Refactor`]: each candidate's placement factor
    /// (`StampedSystem::placement_factor`) factors `G_AA` once for its
    /// λ_m search and golden-section probes, and every new current costs
    /// one `k×k` block factor. [`FactorStrategy::RankKUpdate`] is the
    /// opt-in SMW path, slower per current and agreeing only to ≈1e-12
    /// relative.
    pub strategy: FactorStrategy,
    /// Evaluation attempts a retryable failure (panic, non-finite result,
    /// envelope trip) is granted before the candidate is quarantined.
    /// Clamped to at least 1.
    pub retry_budget: u32,
    /// Scales the analytical first-cut cooling bound before comparing it
    /// against the required temperature drop; above 1.0 prunes less,
    /// below 1.0 prunes more aggressively.
    pub prune_optimism: f64,
}

impl Default for ExploreSettings {
    fn default() -> ExploreSettings {
        ExploreSettings {
            current: CurrentSettings::default(),
            strategy: FactorStrategy::Refactor,
            retry_budget: 2,
            prune_optimism: 1.0,
        }
    }
}

/// The successful evaluation of one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEval {
    /// `peak <= theta_limit` at the optimal current.
    pub feasible: bool,
    /// Devices deployed.
    pub devices: usize,
    /// Optimal shared supply current.
    pub current: Amperes,
    /// Peak silicon temperature at that current.
    pub peak: Celsius,
    /// Total TEC electrical power at that current.
    pub tec_power: Watts,
    /// Steady-state solves spent by the current search.
    pub evaluations: usize,
}

/// A failed evaluation attempt, carrying the typed error and — for greedy
/// placements that died mid-deploy — the completed prefix from
/// [`DeployFailure::partial`], which the quarantine record keeps instead
/// of dropping.
#[derive(Debug)]
pub struct CandidateFailure {
    /// The typed error that stopped the attempt.
    pub error: OptError,
    /// The last fully evaluated greedy prefix, when there was one.
    pub partial: Option<PartialPrefix>,
}

impl CandidateFailure {
    fn plain(error: OptError) -> CandidateFailure {
        CandidateFailure {
            error,
            partial: None,
        }
    }
}

/// The finished exploration. All counts are ledger totals — identical
/// whether the run was uninterrupted or stitched across resume cycles —
/// so downstream consumers (and the serve result cache) replicate
/// bit-identical responses.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The Pareto front over (peak temperature, TEC power) of every
    /// feasible candidate, in canonical order.
    pub front: Vec<ParetoPoint>,
    /// Candidates fully evaluated (feasible or not).
    pub evaluated: usize,
    /// Candidates rejected by the analytical first cut without a solve.
    pub pruned: usize,
    /// Evaluated candidates that met the temperature limit.
    pub feasible: usize,
    /// Blacklisted candidates with their typed records, ordered by id.
    pub quarantined: Vec<QuarantineRecord>,
    /// Evaluation attempts completed by *this* process (diagnostics; the
    /// other counts are ledger totals).
    pub evaluated_this_run: usize,
    /// Leading blocks (`G_AA` factor, `X`, `G_BA·X`) this run of
    /// [`Explorer::explore`] built (diagnostics, neither in the ledger
    /// nor on the wire; 0 from [`Explorer::explore_with`]).
    pub leading_blocks_built: usize,
    /// Placement factors this run of [`Explorer::explore`] built on a
    /// leading block another candidate had built (diagnostics, as
    /// `leading_blocks_built`).
    pub leading_blocks_reused: usize,
    /// `true` when the ledger already held settled work at startup.
    pub resumed: bool,
}

/// Supervision stops are not candidate failures: the candidate stays
/// pending (its claim survives in the ledger) and the sweep reports the
/// interruption.
fn is_interrupt(error: &OptError) -> bool {
    matches!(
        error,
        OptError::Cancelled { .. }
            | OptError::DeadlineExceeded { .. }
            | OptError::BudgetExhausted { .. }
    )
}

/// The hot-side absolute temperature the first-cut sizing bound assumes —
/// the paper's worst-case junction neighbourhood, deliberately generous so
/// the bound stays an over-estimate of achievable cooling.
const FIRST_CUT_HOT_SIDE: Kelvin = Kelvin(350.0);

/// One exploration of one design space against one base system.
#[derive(Debug, Clone)]
pub struct Explorer {
    system: CoolingSystem,
    space: DesignSpace,
    settings: ExploreSettings,
}

impl Explorer {
    /// Binds `space` to the package, worst-case powers and base device of
    /// `system` (its own tiles, if any, are ignored — each candidate
    /// brings its placement). Every candidate is solved on `system`'s
    /// backend.
    pub fn new(system: &CoolingSystem, space: DesignSpace, settings: ExploreSettings) -> Explorer {
        Explorer {
            system: system.clone(),
            space,
            settings,
        }
    }

    /// The design space under exploration.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// FNV-1a fingerprint of the full exploration identity: the space
    /// spec, the package ([`tecopt::PackageConfig::digest`]), the base
    /// device, the worst-case powers, the solver backend and every setting
    /// that can change a result. This is what the ledger header is bound
    /// to.
    pub fn fingerprint(&self) -> u64 {
        let mut digest = format!(
            "explore v1 {} {} {} powers",
            self.space.digest(),
            self.system.config().digest(),
            self.system.stamped().params().digest(),
        );
        for p in self.system.tile_powers() {
            digest.push(' ');
            digest.push_str(&hex_f64(p.value()));
        }
        digest.push_str(&format!(
            " backend {:?} settings {} {} {} {} {:?} {:?} {} {}",
            self.system.backend(),
            hex_f64(self.settings.current.tolerance),
            self.settings.current.max_evaluations,
            hex_f64(self.settings.current.ceiling_fraction),
            hex_f64(self.settings.current.lambda_tolerance),
            self.settings.current.method,
            self.settings.strategy,
            self.settings.retry_budget.max(1),
            hex_f64(self.settings.prune_optimism),
        ));
        fingerprint(&digest)
    }

    /// Runs the exploration with the production physics evaluator and the
    /// analytical first-cut prune.
    ///
    /// # Errors
    ///
    /// - interruption ([`OptError::Cancelled`] /
    ///   [`OptError::DeadlineExceeded`] / [`OptError::BudgetExhausted`])
    ///   with partial progress durably in the ledger;
    /// - [`OptError::InvalidParameter`] for a stale ledger or ledger I/O.
    ///
    /// Per-candidate failures never surface here — they quarantine.
    pub fn explore(&self, ctx: &RunContext) -> Result<ExploreReport, OptError> {
        let params = self.system.stamped().params().clone();
        let config = self.system.config();
        let powers = self.system.tile_powers().to_vec();
        let theta = self.space.theta_limit();
        let settings = self.settings;
        let backend = self.system.backend();
        // One cache per call, shared by every worker: the candidate order
        // is thickness-major, so each (mask, contact) pair reaches every
        // worker and per-worker caches would repeat each build.
        let leading = Arc::new(LeadingBlockCache::new());

        let passive = self
            .system
            .with_tiles(&[])?
            .with_leading_cache(Arc::clone(&leading));
        let baseline_peak = passive.solve(Amperes(0.0))?.peak();
        let required_drop = baseline_peak.value() - theta.value();
        let optimism = settings.prune_optimism;

        // First-cut sizing: the textbook single-stage bound
        // `ΔT_max = ½·z·T_h²`, derated by the share of that gradient the
        // die-attach contacts leave across the film. An over-estimate of
        // achievable cooling by construction, so pruning on it never
        // discards a feasible candidate.
        let prune = |cand: &Candidate| -> bool {
            if required_drop <= 0.0 {
                return false;
            }
            let Ok(scaled) = cand.scaled_params(&params) else {
                return false;
            };
            let c_cold = scaled.cold_contact().value();
            let c_hot = scaled.hot_contact().value();
            let series = c_cold * c_hot / (c_cold + c_hot);
            let derate = series / (series + scaled.conductance().value());
            let t_h = FIRST_CUT_HOT_SIDE.value();
            let first_cut = 0.5 * scaled.figure_of_merit_z() * t_h * t_h * derate;
            first_cut.is_finite() && first_cut * optimism < required_drop
        };

        let eval = |cand: &Candidate| -> Result<CandidateEval, CandidateFailure> {
            let scaled = cand
                .scaled_params(&params)
                .map_err(CandidateFailure::plain)?;
            match &cand.placement {
                Placement::Tiles(tiles) => {
                    let system = CoolingSystem::new(config, scaled, tiles, powers.clone())
                        .map_err(CandidateFailure::plain)?
                        .with_backend(backend)
                        .with_leading_cache(Arc::clone(&leading));
                    let opt = optimize_current_with(&system, settings.current, settings.strategy)
                        .map_err(CandidateFailure::plain)?;
                    Ok(CandidateEval {
                        feasible: opt.state().peak().value() <= theta.value(),
                        devices: tiles.len(),
                        current: opt.current(),
                        peak: opt.state().peak(),
                        tec_power: opt.state().tec_power(),
                        evaluations: opt.evaluations(),
                    })
                }
                Placement::Greedy => {
                    let base = CoolingSystem::new(config, scaled, &[], powers.clone())
                        .map_err(CandidateFailure::plain)?
                        .with_backend(backend)
                        .with_leading_cache(Arc::clone(&leading));
                    // Probe budgets and deadlines are enforced between
                    // candidates (at claim boundaries); within one greedy
                    // deploy only cancellation propagates, so a candidate
                    // is never half-charged against the budget.
                    let child = RunContext::unbounded().cancel_token(ctx.token().clone());
                    let mut deploy =
                        DeploySettings::with_limit(theta).with_strategy(settings.strategy);
                    deploy.current = settings.current;
                    match greedy_deploy_supervised(&base, deploy, &child) {
                        Ok(outcome) => {
                            let d = outcome.deployment();
                            Ok(CandidateEval {
                                feasible: outcome.is_satisfied(),
                                devices: d.device_count(),
                                current: d.optimum().current(),
                                peak: d.optimum().state().peak(),
                                tec_power: d.optimum().state().tec_power(),
                                evaluations: d.optimum().evaluations(),
                            })
                        }
                        Err(DeployFailure { error, partial }) => Err(CandidateFailure {
                            error,
                            partial: partial.map(|d| PartialPrefix {
                                devices: d.device_count(),
                                peak: d.optimum().state().peak(),
                            }),
                        }),
                    }
                }
            }
        };

        let mut report = self.explore_with(ctx, eval, prune)?;
        report.leading_blocks_built = leading.built();
        report.leading_blocks_reused = leading.reused();
        Ok(report)
    }

    /// The engine over injectable evaluation and prune functions — the
    /// seam the chaos suite and benchmarks drive with synthetic
    /// candidates. `eval` must be a pure function of the candidate for
    /// the bit-identity guarantees to hold.
    ///
    /// # Errors
    ///
    /// As [`Explorer::explore`].
    pub fn explore_with<E, P>(
        &self,
        ctx: &RunContext,
        eval: E,
        prune: P,
    ) -> Result<ExploreReport, OptError>
    where
        E: Fn(&Candidate) -> Result<CandidateEval, CandidateFailure> + Sync,
        P: Fn(&Candidate) -> bool + Sync,
    {
        let total = self.space.len();
        let fp = self.fingerprint();
        let (ledger, mut state) = match ctx.checkpoint_path() {
            Some(path) => {
                let (ledger, state) = Ledger::open(path, fp, total)?;
                (Some(ledger), state)
            }
            None => (None, LedgerState::default()),
        };
        let resumed = state.settled_count() > 0 || !state.claims.is_empty();
        let retry_budget = self.settings.retry_budget.max(1);

        // Analytical first cut over the still-pending candidates. Each
        // prune record claims one admission so a kill boundary can land
        // between any two ledger writes.
        let mut queue: Vec<(Candidate, u32)> = Vec::new();
        for cand in self.space.candidates() {
            if state.settled(cand.id) {
                continue;
            }
            if prune(&cand) {
                if !ctx.admit() {
                    return Err(ctx.interruption(state.settled_count(), total));
                }
                let rec = EvalRecord::Pruned { id: cand.id };
                if let Some(l) = &ledger {
                    l.record(&rec)?;
                }
                state.done.insert(cand.id, rec);
            } else {
                let prior = state.claims.get(&cand.id).copied().unwrap_or(0);
                if prior >= retry_budget {
                    // Every recorded claim died without a terminal record:
                    // each admitted attempt killed the whole process
                    // (abort/OOM — the failure shape panic isolation
                    // cannot contain). The budget is spent; quarantine at
                    // admission so one bad candidate can never keep
                    // aborting the sweep across resumes forever.
                    if !ctx.admit() {
                        return Err(ctx.interruption(state.settled_count(), total));
                    }
                    let rec = QuarantineRecord::new(
                        cand.id,
                        prior,
                        QuarantineReason::Panicked,
                        "attempt killed in flight",
                        None,
                    );
                    if let Some(l) = &ledger {
                        l.quarantine(&rec)?;
                    }
                    state.quarantined.insert(cand.id, rec);
                } else {
                    queue.push((cand, prior + 1));
                }
            }
        }

        // Retry rounds. Partial greedy prefixes seen on earlier attempts
        // are kept so the eventual quarantine record surfaces the most
        // recent one instead of dropping it.
        let mut partials: BTreeMap<u64, PartialPrefix> = BTreeMap::new();
        let mut evaluated_this_run = 0usize;
        while !queue.is_empty() {
            let round = std::mem::take(&mut queue);
            let meta: Vec<(Candidate, u32)> = round.clone();
            let outcomes = par_map_init_isolated(
                round,
                || (),
                |_state: &mut (),
                 (cand, attempt): (Candidate, u32)|
                 -> Result<Result<CandidateEval, CandidateFailure>, OptError> {
                    if let Some(l) = &ledger {
                        l.claim(cand.id, attempt)?;
                    }
                    Ok(eval(&cand))
                },
                || ctx.admit(),
            );

            let mut interrupted = false;
            let mut ledger_error: Option<OptError> = None;
            for (outcome, (cand, attempt)) in outcomes.into_iter().zip(meta) {
                let failure = match outcome {
                    ItemOutcome::Skipped => {
                        interrupted = true;
                        continue;
                    }
                    ItemOutcome::Panicked { payload } => {
                        evaluated_this_run += 1;
                        (QuarantineReason::Panicked, payload, true)
                    }
                    ItemOutcome::Done(Err(e)) => {
                        // Ledger I/O died under this worker: nothing was
                        // durably recorded, abort the whole sweep.
                        if ledger_error.is_none() {
                            ledger_error = Some(e);
                        }
                        continue;
                    }
                    ItemOutcome::Done(Ok(Ok(eval))) => {
                        evaluated_this_run += 1;
                        if eval.current.value().is_finite()
                            && eval.peak.value().is_finite()
                            && eval.tec_power.value().is_finite()
                        {
                            let rec = EvalRecord::Evaluated {
                                id: cand.id,
                                feasible: eval.feasible,
                                devices: eval.devices,
                                current: eval.current,
                                peak: eval.peak,
                                tec_power: eval.tec_power,
                                evaluations: eval.evaluations,
                            };
                            if let Some(l) = &ledger {
                                l.record(&rec)?;
                            }
                            state.done.insert(cand.id, rec);
                            continue;
                        }
                        (
                            QuarantineReason::NonFinite,
                            format!(
                                "non-finite result: current {} peak {} power {}",
                                eval.current.value(),
                                eval.peak.value(),
                                eval.tec_power.value()
                            ),
                            true,
                        )
                    }
                    ItemOutcome::Done(Ok(Err(failure))) => {
                        evaluated_this_run += 1;
                        if is_interrupt(&failure.error) {
                            // A supervision stop, not a candidate fault:
                            // the claim stands, the candidate stays
                            // pending for the next cycle.
                            interrupted = true;
                            continue;
                        }
                        if let Some(p) = failure.partial {
                            partials.insert(cand.id, p);
                        }
                        (
                            QuarantineReason::classify(&failure.error),
                            failure.error.to_string(),
                            retryable(&failure.error),
                        )
                    }
                };
                let (reason, message, retry) = failure;
                if retry && attempt < retry_budget {
                    queue.push((cand, attempt + 1));
                } else {
                    let rec = QuarantineRecord::new(
                        cand.id,
                        attempt,
                        reason,
                        message,
                        partials.get(&cand.id).copied(),
                    );
                    if let Some(l) = &ledger {
                        l.quarantine(&rec)?;
                    }
                    state.quarantined.insert(cand.id, rec);
                }
            }
            if let Some(e) = ledger_error {
                return Err(e);
            }
            if interrupted {
                return Err(ctx.interruption(state.settled_count(), total));
            }
        }

        let points: Vec<ParetoPoint> = state
            .done
            .values()
            .filter_map(|rec| match rec {
                EvalRecord::Evaluated {
                    id,
                    feasible: true,
                    current,
                    peak,
                    tec_power,
                    ..
                } => ParetoPoint::new(*id, *current, *peak, *tec_power),
                _ => None,
            })
            .collect();
        let evaluated = state
            .done
            .values()
            .filter(|r| matches!(r, EvalRecord::Evaluated { .. }))
            .count();
        let pruned = state.done.len() - evaluated;
        let feasible = state
            .done
            .values()
            .filter(|r| matches!(r, EvalRecord::Evaluated { feasible: true, .. }))
            .count();
        Ok(ExploreReport {
            front: pareto_front(points),
            evaluated,
            pruned,
            feasible,
            quarantined: state.quarantined.values().cloned().collect(),
            evaluated_this_run,
            leading_blocks_built: 0,
            leading_blocks_reused: 0,
            resumed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Placement;
    use tecopt::{PackageConfig, TecParams, TileIndex};
    use tecopt_thermal::TileGrid;
    use tecopt_units::{KelvinPerWatt, Meters};

    fn explorer(convection: f64) -> Explorer {
        let grid = TileGrid::new(4, 4, Meters::from_millimeters(0.5)).unwrap();
        let config = PackageConfig::builder(grid)
            .convection_resistance(KelvinPerWatt(convection))
            .build()
            .unwrap();
        let system = CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &[],
            vec![Watts(0.2); 16],
        )
        .unwrap();
        let space = DesignSpace::new(
            vec![1.0],
            vec![1.0],
            vec![Placement::Tiles(vec![TileIndex::new(1, 1)])],
            Celsius(70.0),
        )
        .unwrap();
        Explorer::new(&system, space, ExploreSettings::default())
    }

    #[test]
    fn fingerprint_binds_the_package_not_just_its_grid() {
        assert_eq!(explorer(0.46).fingerprint(), explorer(0.46).fingerprint());
        assert_ne!(explorer(0.46).fingerprint(), explorer(0.47).fingerprint());
    }

    #[test]
    fn fingerprint_binds_the_factor_strategy_and_the_backend() {
        let default = explorer(0.46);
        let rank_k = Explorer {
            settings: ExploreSettings {
                strategy: FactorStrategy::RankKUpdate,
                ..default.settings
            },
            ..default.clone()
        };
        let dense = Explorer {
            system: default
                .system
                .clone()
                .with_backend(tecopt_linalg::SolverBackend::DenseCholesky),
            ..default.clone()
        };
        assert_ne!(default.fingerprint(), rank_k.fingerprint());
        assert_ne!(default.fingerprint(), dense.fingerprint());
    }
}
