//! Thermal-runaway sweeps (experiment E5): sampling the peak temperature
//! as the supply current crosses the runaway limit `λ_m`.
//!
//! The paper observes that "a large amount of supply current could even
//! cause the thermal runaway of the system": below `λ_m` the steady state
//! exists and diverges as `i → λ_m⁻`; at and beyond `λ_m` the matrix
//! `G − i·D` is no longer positive definite and no bounded steady state
//! exists at all.

use crate::record::{fingerprint, hex_f64};
use crate::supervise::{checkpointed_map, Checkpointable, RunContext};
use crate::{runaway_limit, CoolingSystem, OptError, RunawayLimit, SweepFailure};
use tecopt_units::{Amperes, Celsius};

/// One sample of a runaway sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The sampled supply current.
    pub current: Amperes,
    /// Peak silicon temperature, or `None` past runaway (no steady state).
    pub peak: Option<Celsius>,
    /// Electrical power drawn by the TEC devices, when a steady state
    /// exists.
    pub tec_power: Option<tecopt_units::Watts>,
}

/// A full sweep with the computed limit.
#[derive(Debug, Clone)]
pub struct RunawaySweep {
    /// The runaway limit of the swept system.
    pub limit: RunawayLimit,
    /// Samples in ascending current order.
    pub points: Vec<SweepPoint>,
}

impl RunawaySweep {
    /// The minimum sampled peak temperature (the sweep's empirical optimum).
    ///
    /// NaN peaks (which a well-formed sweep never produces) order last
    /// under `total_cmp`, so they can never shadow a finite optimum.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter_map(|p| p.peak.map(|k| (p, k)))
            .min_by(|(_, a), (_, b)| a.value().total_cmp(&b.value()))
            .map(|(p, _)| p)
    }

    /// `true` if the sweep demonstrates divergence: the last finite sample
    /// is hotter than the uncooled (i = 0) sample.
    pub fn demonstrates_divergence(&self) -> bool {
        let finite: Vec<&SweepPoint> = self.points.iter().filter(|p| p.peak.is_some()).collect();
        match (finite.first(), finite.last()) {
            (Some(first), Some(last)) => last.peak > first.peak,
            _ => false,
        }
    }
}

/// Sweeps `fractions · λ_m` (fractions may exceed 1 to show the
/// no-steady-state region).
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] for a passive system.
/// - [`OptError::InvalidParameter`] for an empty or non-finite fraction
///   list.
pub fn sweep_fractions(
    system: &CoolingSystem,
    fractions: &[f64],
    lambda_tolerance: f64,
) -> Result<RunawaySweep, OptError> {
    sweep_fractions_supervised(
        system,
        fractions,
        lambda_tolerance,
        &RunContext::unbounded(),
    )
    .map_err(SweepFailure::into_error)
}

/// [`sweep_fractions`] under a [`RunContext`]: cancellation and deadline
/// checks between samples, per-sample panic isolation, and — when the
/// context carries a checkpoint path — resumable, bit-identical sweeps.
///
/// # Errors
///
/// Same failure modes as [`sweep_fractions`], wrapped in a
/// [`SweepFailure`] that also carries the completed sample points, plus
/// the supervision errors ([`OptError::Cancelled`],
/// [`OptError::DeadlineExceeded`], [`OptError::WorkerPanicked`]).
pub fn sweep_fractions_supervised(
    system: &CoolingSystem,
    fractions: &[f64],
    lambda_tolerance: f64,
    ctx: &RunContext,
) -> Result<RunawaySweep, SweepFailure<SweepPoint>> {
    let fail = |e: OptError| SweepFailure::before_start(e, fractions.len());
    if fractions.is_empty() {
        return Err(fail(OptError::InvalidParameter(
            "sweep needs at least one fraction".into(),
        )));
    }
    // NaN used to slip past the old `!f.is_finite()` guard straight into a
    // `sort_by(partial_cmp().expect())` panic; the shared validators reject
    // NaN/±∞/negative values with a typed error instead.
    tecopt_units::validate::finite_slice("sweep fraction", fractions)
        .map_err(|e| fail(e.into()))?;
    tecopt_units::validate::non_negative_slice("sweep fraction", fractions)
        .map_err(|e| fail(e.into()))?;
    let limit = runaway_limit(system, lambda_tolerance).map_err(fail)?;
    let lam = limit.lambda().value();
    let mut sorted = fractions.to_vec();
    sorted.sort_by(f64::total_cmp);

    // A checkpoint only resumes the sweep it was written by: digest the
    // limit (which already reflects the system), the tolerance and the
    // sorted sample plan, all bit-exact.
    let fp = {
        let mut digest = String::from(SweepPoint::KIND);
        digest.push(' ');
        digest.push_str(&hex_f64(lam));
        digest.push(' ');
        digest.push_str(&hex_f64(lambda_tolerance));
        for f in &sorted {
            digest.push(' ');
            digest.push_str(&hex_f64(*f));
        }
        fingerprint(&digest)
    };

    // Every sample is an independent factor+solve at `lam·f` — fan them
    // out over worker threads, each with its own solver handle. Build one
    // prototype handle up front and clone it per worker: the clone is
    // infallible and carries the context's token, so a raised token also
    // stops the sparse backend mid-iteration.
    let proto = system
        .solver()
        .map_err(fail)?
        .with_cancel(ctx.token().clone());
    let points = checkpointed_map(
        ctx,
        fp,
        sorted,
        || proto.clone(),
        |solver, f| {
            let i = Amperes(lam * f);
            match solver.solve(i) {
                Ok(state) => Ok(SweepPoint {
                    current: i,
                    peak: Some(state.peak()),
                    tec_power: Some(state.tec_power()),
                }),
                Err(OptError::BeyondRunaway { .. }) => Ok(SweepPoint {
                    current: i,
                    peak: None,
                    tec_power: None,
                }),
                Err(e) => Err(e),
            }
        },
    )?;
    Ok(RunawaySweep { limit, points })
}

/// The default demonstration sweep: dense sampling up to `λ_m` plus a few
/// samples beyond it.
///
/// # Errors
///
/// Same contract as [`sweep_fractions`].
pub fn demonstration_sweep(system: &CoolingSystem) -> Result<RunawaySweep, OptError> {
    let mut fractions: Vec<f64> = (0..=20).map(|k| k as f64 * 0.05).collect(); // 0..1
    fractions.extend([0.97, 0.99, 0.999, 1.001, 1.05, 1.2]);
    sweep_fractions(system, &fractions, 1e-10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_device::TecParams;
    use tecopt_thermal::{PackageConfig, TileIndex};
    use tecopt_units::Watts;

    fn system() -> CoolingSystem {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let mut powers = vec![Watts(0.05); 16];
        powers[5] = Watts(0.7);
        CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1)],
            powers,
        )
        .unwrap()
    }

    #[test]
    fn demonstration_shows_divergence_and_dead_zone() {
        let sweep = demonstration_sweep(&system()).unwrap();
        assert!(sweep.demonstrates_divergence());
        // Beyond lambda_m there is no steady state.
        let beyond: Vec<&SweepPoint> = sweep
            .points
            .iter()
            .filter(|p| p.current.value() > sweep.limit.infeasible().value())
            .collect();
        assert!(!beyond.is_empty());
        assert!(beyond.iter().all(|p| p.peak.is_none()));
        // Below, steady states exist.
        let within: Vec<&SweepPoint> = sweep
            .points
            .iter()
            .filter(|p| p.current.value() < sweep.limit.feasible().value())
            .collect();
        assert!(within.iter().all(|p| p.peak.is_some()));
    }

    #[test]
    fn best_point_is_interior() {
        let sweep = demonstration_sweep(&system()).unwrap();
        let best = sweep.best().expect("finite samples exist");
        assert!(best.current.value() > 0.0);
        assert!(best.current < sweep.limit.feasible());
        assert!(best.tec_power.expect("steady state").value() > 0.0);
    }

    #[test]
    fn best_is_nan_safe_and_skips_non_steady_points() {
        // Regression: `best()` used to thread `partial_cmp().expect()`
        // through the filtered peaks, so a NaN peak was a panic. Under
        // `total_cmp` a NaN orders after every finite sample and the
        // finite minimum still wins; `None` peaks are skipped outright.
        let limit = runaway_limit(&system(), 1e-6).unwrap();
        let mk = |i: f64, peak: Option<f64>| SweepPoint {
            current: Amperes(i),
            peak: peak.map(Celsius),
            tec_power: None,
        };
        let sweep = RunawaySweep {
            limit,
            points: vec![
                mk(0.0, Some(80.0)),
                mk(0.5, Some(f64::NAN)),
                mk(1.0, Some(72.5)),
                mk(1.5, None),
            ],
        };
        let best = sweep.best().expect("finite samples exist");
        assert_eq!(best.current, Amperes(1.0));
    }

    #[test]
    fn input_validation() {
        let s = system();
        assert!(matches!(
            sweep_fractions(&s, &[], 1e-9),
            Err(OptError::InvalidParameter(_))
        ));
        assert!(matches!(
            sweep_fractions(&s, &[-0.5], 1e-9),
            Err(OptError::InvalidParameter(_))
        ));
        let passive = s.with_tiles(&[]).unwrap();
        assert!(matches!(
            sweep_fractions(&passive, &[0.5], 1e-9),
            Err(OptError::NoDevicesDeployed)
        ));
    }

    #[test]
    fn nan_and_infinite_fractions_are_typed_errors_not_panics() {
        // Regression: NaN passed the old `!f.is_finite() || *f < 0.0` guard
        // check for negativity but then detonated the sort's
        // `partial_cmp().expect()`. Both must now come back as
        // `InvalidParameter`.
        let s = system();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                sweep_fractions(&s, &[0.5, bad, 0.1], 1e-9),
                Err(OptError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_semantics() {
        // The fan-out must not change results: a sweep is bit-identical to
        // solving each fraction one by one on the shared system.
        let s = system();
        let fractions = [0.9, 0.1, 0.5, 0.75, 0.25, 1.05];
        let sweep = sweep_fractions(&s, &fractions, 1e-9).unwrap();
        let lam = sweep.limit.lambda().value();
        let mut sorted = fractions.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (point, f) in sweep.points.iter().zip(sorted) {
            let i = Amperes(lam * f);
            assert_eq!(point.current, i);
            match s.solve(i) {
                Ok(state) => {
                    assert_eq!(point.peak.expect("steady state"), state.peak());
                    assert_eq!(point.tec_power.expect("steady state"), state.tec_power());
                }
                Err(OptError::BeyondRunaway { .. }) => assert!(point.peak.is_none()),
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
    }

    #[test]
    fn points_are_sorted_by_current() {
        let sweep = sweep_fractions(&system(), &[0.9, 0.1, 0.5], 1e-9).unwrap();
        let currents: Vec<f64> = sweep.points.iter().map(|p| p.current.value()).collect();
        let mut sorted = currents.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(currents, sorted);
    }
}
