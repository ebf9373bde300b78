//! High-level facade: one call from "package + devices + worst-case powers
//! + temperature limit" to a complete, audited cooling-system design.
//!
//! [`CoolingDesigner`] runs the paper's full pipeline — greedy deployment
//! (Fig. 5), convex current setting (Sec. V.C), the runaway-limit analysis
//! (Thm. 1) and the convexity certificate (Thm. 4) — and packages the
//! results with the derived figures of merit a design review asks for.
//!
//! ```
//! use tecopt::designer::CoolingDesigner;
//! use tecopt::{PackageConfig, TecParams};
//! use tecopt_units::{Celsius, Watts};
//!
//! # fn main() -> Result<(), tecopt::OptError> {
//! let config = PackageConfig::hotspot41_like(6, 6)?;
//! let mut powers = vec![Watts(0.08); 36];
//! powers[14] = Watts(0.55);
//! let report = CoolingDesigner::new(config, TecParams::superlattice_thin_film())
//!     .tile_powers(powers)
//!     .temperature_limit(Celsius(70.0))
//!     .design()?;
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```

use crate::convexity::certify_convexity_supervised;
use crate::deploy::evaluate_deployments_supervised;
use crate::supervise::RunContext;
use crate::{
    full_cover, greedy_deploy, runaway_limit, ConvexityCertificate, ConvexitySettings,
    CoolingSystem, CurrentSettings, DeployOutcome, DeploySettings, Deployment, OptError,
    RunawayLimit, SweepFailure, TecParams,
};
use tecopt_thermal::{PackageConfig, TileIndex};
use tecopt_units::{Amperes, Celsius, Watts};

/// Builder for a complete cooling-system design run.
#[derive(Debug, Clone)]
pub struct CoolingDesigner {
    config: PackageConfig,
    params: TecParams,
    tile_powers: Option<Vec<Watts>>,
    limit: Celsius,
    current: CurrentSettings,
    convexity: Option<ConvexitySettings>,
    with_full_cover: bool,
    alternatives: usize,
    run_context: Option<RunContext>,
}

impl CoolingDesigner {
    /// Starts a design for the given package and device technology, with
    /// the paper's customary 85 °C limit, default optimizer settings, a
    /// default convexity audit, and the Full-Cover comparison enabled.
    pub fn new(config: PackageConfig, params: TecParams) -> CoolingDesigner {
        CoolingDesigner {
            config,
            params,
            tile_powers: None,
            limit: Celsius(85.0),
            current: CurrentSettings::default(),
            convexity: Some(ConvexitySettings {
                subranges: 4,
                ..ConvexitySettings::default()
            }),
            with_full_cover: true,
            alternatives: 0,
            run_context: None,
        }
    }

    /// Sets the worst-case power of every tile (row-major). Required.
    pub fn tile_powers(mut self, powers: Vec<Watts>) -> CoolingDesigner {
        self.tile_powers = Some(powers);
        self
    }

    /// Sets the maximum allowable tile temperature `θ_max`.
    pub fn temperature_limit(mut self, limit: Celsius) -> CoolingDesigner {
        self.limit = limit;
        self
    }

    /// Overrides the current-optimization settings.
    pub fn current_settings(mut self, settings: CurrentSettings) -> CoolingDesigner {
        self.current = settings;
        self
    }

    /// Overrides the convexity-certificate settings; `None` skips the audit.
    pub fn convexity_settings(mut self, settings: Option<ConvexitySettings>) -> CoolingDesigner {
        self.convexity = settings;
        self
    }

    /// Enables or disables the Full-Cover baseline comparison.
    pub fn compare_full_cover(mut self, enable: bool) -> CoolingDesigner {
        self.with_full_cover = enable;
        self
    }

    /// Also scores up to `count` smaller alternative deployments — the
    /// largest strict prefixes of the greedy tile order, each with its own
    /// optimized current — so the report shows what each device bought.
    /// Evaluated in parallel via [`evaluate_deployments`](crate::evaluate_deployments); `0` (the
    /// default) skips this.
    pub fn alternatives(mut self, count: usize) -> CoolingDesigner {
        self.alternatives = count;
        self
    }

    /// Supervises the pipeline under `ctx`: the cancellation token and
    /// deadline are checked between stages and inside every sweep, and
    /// worker panics in the convexity audit and the alternatives sweep are
    /// isolated to typed errors. The default is an unbounded context.
    pub fn run_context(mut self, ctx: RunContext) -> CoolingDesigner {
        self.run_context = Some(ctx);
        self
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// - [`OptError::InvalidParameter`] if the tile powers were never set.
    /// - Any construction or optimization error from the underlying layers.
    ///   An unsatisfiable limit is *not* an error: the report carries the
    ///   best-effort deployment with [`DesignReport::limit_satisfied`]
    ///   false.
    pub fn design(self) -> Result<DesignReport, OptError> {
        // The pipeline runs two different sweep kinds (convexity subranges
        // and alternative deployments); a single checkpoint file cannot
        // serve both, so the facade supervises without checkpointing. The
        // resumable designer sweep is [`crate::score_candidates`].
        let ctx = self
            .run_context
            .map(|c| c.without_checkpoint())
            .unwrap_or_default();
        let powers = self
            .tile_powers
            .ok_or_else(|| OptError::InvalidParameter("tile powers were never provided".into()))?;
        let base = CoolingSystem::without_devices(&self.config, self.params, powers)?;
        ctx.ensure_live()?;
        let uncooled_peak = base.solve(Amperes(0.0))?.peak();
        let mut deploy_settings = DeploySettings::with_limit(self.limit);
        deploy_settings.current = self.current;
        // The greedy search and the Full-Cover baseline are independent
        // pipelines over the same base system — run them side by side.
        let (outcome, full_cover) = if self.with_full_cover {
            let current = self.current;
            let (full, outcome) = crate::parallel::join(
                || full_cover(&base, current),
                || greedy_deploy(&base, deploy_settings),
            );
            (outcome, Some(full))
        } else {
            (greedy_deploy(&base, deploy_settings), None)
        };
        let outcome = outcome?;
        let full_cover = full_cover.transpose()?;
        let limit_satisfied = outcome.is_satisfied();
        let deployment = match outcome {
            DeployOutcome::Satisfied(d) => d,
            DeployOutcome::Failed { best, .. } => best,
        };
        ctx.ensure_live()?;
        let runaway = if deployment.device_count() > 0 {
            Some(runaway_limit(deployment.system(), 1e-9)?)
        } else {
            None
        };
        ctx.ensure_live()?;
        let convexity = match (&self.convexity, deployment.device_count()) {
            (Some(settings), 1..) => Some(
                certify_convexity_supervised(deployment.system(), *settings, &ctx)
                    .map_err(SweepFailure::into_error)?,
            ),
            _ => None,
        };
        ctx.ensure_live()?;
        let alternatives = if self.alternatives > 0 && deployment.device_count() > 1 {
            // The largest strict prefixes of the deployment order, smallest
            // first: peak temperature versus device count.
            let tiles = deployment.tiles();
            let mut lens: Vec<usize> = (1..tiles.len()).rev().take(self.alternatives).collect();
            lens.reverse();
            let candidates: Vec<Vec<TileIndex>> =
                lens.into_iter().map(|k| tiles[..k].to_vec()).collect();
            evaluate_deployments_supervised(&base, &candidates, self.current, &ctx)
                .map_err(SweepFailure::into_error)?
        } else {
            Vec::new()
        };
        Ok(DesignReport {
            limit: self.limit,
            uncooled_peak,
            limit_satisfied,
            deployment,
            runaway,
            convexity,
            full_cover,
            alternatives,
        })
    }
}

/// Everything a design run produces.
#[derive(Debug, Clone)]
pub struct DesignReport {
    limit: Celsius,
    uncooled_peak: Celsius,
    limit_satisfied: bool,
    deployment: Deployment,
    runaway: Option<RunawayLimit>,
    convexity: Option<ConvexityCertificate>,
    full_cover: Option<Deployment>,
    alternatives: Vec<Deployment>,
}

impl DesignReport {
    /// The temperature limit the design targeted.
    pub fn limit(&self) -> Celsius {
        self.limit
    }

    /// Peak tile temperature without any TEC devices.
    pub fn uncooled_peak(&self) -> Celsius {
        self.uncooled_peak
    }

    /// Whether the greedy deployment met the limit.
    pub fn limit_satisfied(&self) -> bool {
        self.limit_satisfied
    }

    /// The (best-effort) deployment with its optimal operating point.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The runaway limit of the deployed system (absent for an empty
    /// deployment).
    pub fn runaway(&self) -> Option<&RunawayLimit> {
        self.runaway.as_ref()
    }

    /// The convexity audit, if requested and applicable.
    pub fn convexity(&self) -> Option<&ConvexityCertificate> {
        self.convexity.as_ref()
    }

    /// The Full-Cover baseline, if requested.
    pub fn full_cover(&self) -> Option<&Deployment> {
        self.full_cover.as_ref()
    }

    /// Alternative (smaller) deployments scored alongside the main one,
    /// ascending by device count — empty unless
    /// [`CoolingDesigner::alternatives`] asked for them.
    pub fn alternatives(&self) -> &[Deployment] {
        &self.alternatives
    }

    /// The swing loss versus Full-Cover (positive when the sparse
    /// deployment wins, as in Table I), if the comparison ran.
    pub fn swing_loss(&self) -> Option<Celsius> {
        self.full_cover
            .as_ref()
            .map(|fc| fc.optimum().state().peak() - self.deployment.optimum().state().peak())
    }

    /// Operating margin to runaway: `I_opt / λ_m`, if a limit exists.
    pub fn runaway_utilization(&self) -> Option<f64> {
        self.runaway
            .as_ref()
            .map(|r| self.deployment.optimum().current().value() / r.lambda().value())
    }

    /// A human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let d = &self.deployment;
        let mut out = String::new();
        out.push_str(&format!(
            "uncooled peak {:.2}, limit {:.1}: {}\n",
            self.uncooled_peak,
            self.limit,
            if self.limit_satisfied {
                "SATISFIED"
            } else {
                "NOT satisfiable (best effort shown)"
            }
        ));
        out.push_str(&format!(
            "deployment: {} TEC devices at {:.2} -> peak {:.2} (swing {:.2}, P_TEC {:.2})\n",
            d.device_count(),
            d.optimum().current(),
            d.optimum().state().peak(),
            d.cooling_swing(),
            d.optimum().state().tec_power(),
        ));
        if let (Some(r), Some(util)) = (&self.runaway, self.runaway_utilization()) {
            out.push_str(&format!(
                "runaway limit: {:.2} (operating at {:.0}% of it)\n",
                r.lambda(),
                100.0 * util,
            ));
        }
        if let Some(c) = &self.convexity {
            out.push_str(&format!(
                "convexity certificate: {}\n",
                if c.is_certified() {
                    "CONFIRMED"
                } else {
                    "inconclusive"
                }
            ));
        }
        if let (Some(fc), Some(loss)) = (&self.full_cover, self.swing_loss()) {
            out.push_str(&format!(
                "full cover: {} devices -> peak {:.2} (swing loss {:.2})\n",
                fc.device_count(),
                fc.optimum().state().peak(),
                loss,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn powers() -> Vec<Watts> {
        let mut p = vec![Watts(0.08); 36];
        p[14] = Watts(0.55);
        p
    }

    fn designer() -> CoolingDesigner {
        CoolingDesigner::new(
            PackageConfig::hotspot41_like(6, 6).unwrap(),
            TecParams::superlattice_thin_film(),
        )
    }

    fn achievable_limit() -> Celsius {
        // 2 degC below the uncooled peak of the test system.
        let base = CoolingSystem::without_devices(
            &PackageConfig::hotspot41_like(6, 6).unwrap(),
            TecParams::superlattice_thin_film(),
            powers(),
        )
        .unwrap();
        Celsius(base.solve(Amperes(0.0)).unwrap().peak().value() - 2.0)
    }

    #[test]
    fn full_pipeline_produces_a_complete_report() {
        let limit = achievable_limit();
        let report = designer()
            .tile_powers(powers())
            .temperature_limit(limit)
            .design()
            .unwrap();
        assert!(report.uncooled_peak() > limit);
        assert!(report.limit_satisfied());
        assert!(report.deployment().device_count() > 0);
        assert!(report.runaway().is_some());
        assert!(report
            .convexity()
            .map(|c| c.is_certified())
            .unwrap_or(false));
        assert!(report.full_cover().is_some());
        let u = report.runaway_utilization().unwrap();
        assert!(u > 0.0 && u < 1.0);
        let s = report.summary();
        assert!(s.contains("SATISFIED"));
        assert!(s.contains("runaway"));
    }

    #[test]
    fn missing_powers_rejected() {
        assert!(matches!(
            designer().design(),
            Err(OptError::InvalidParameter(_))
        ));
    }

    #[test]
    fn unsatisfiable_limit_reports_best_effort() {
        let report = designer()
            .tile_powers(powers())
            .temperature_limit(Celsius(-50.0))
            .design()
            .unwrap();
        assert!(!report.limit_satisfied());
        assert!(report.deployment().device_count() > 0);
        assert!(report.summary().contains("NOT satisfiable"));
    }

    #[test]
    fn trivial_limit_needs_no_devices() {
        let report = designer()
            .tile_powers(powers())
            .temperature_limit(Celsius(300.0))
            .compare_full_cover(false)
            .design()
            .unwrap();
        assert!(report.limit_satisfied());
        assert_eq!(report.deployment().device_count(), 0);
        assert!(report.runaway().is_none());
        assert!(report.full_cover().is_none());
        assert!(report.swing_loss().is_none());
        assert!(report.runaway_utilization().is_none());
    }

    #[test]
    fn alternatives_score_smaller_deployments() {
        let report = designer()
            .tile_powers(powers())
            .temperature_limit(achievable_limit())
            .alternatives(3)
            .design()
            .unwrap();
        let main = report.deployment();
        if main.device_count() > 1 {
            let alts = report.alternatives();
            assert!(!alts.is_empty());
            assert!(alts.len() <= 3);
            let mut prev = 0;
            for alt in alts {
                assert!(alt.device_count() > prev, "ascending by device count");
                assert!(alt.device_count() < main.device_count());
                // Prefix of the greedy order.
                assert_eq!(alt.tiles(), &main.tiles()[..alt.device_count()]);
                prev = alt.device_count();
            }
        } else {
            assert!(report.alternatives().is_empty());
        }
    }

    #[test]
    fn audit_can_be_skipped() {
        let report = designer()
            .tile_powers(powers())
            .temperature_limit(achievable_limit())
            .convexity_settings(None)
            .design()
            .unwrap();
        assert!(report.convexity().is_none());
        assert!(report.deployment().device_count() > 0);
    }
}
