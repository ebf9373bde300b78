//! The thermal-runaway current limit `λ_m` (Sec. V.C.1, Theorem 1).
//!
//! `λ_m = min { θᵀGθ : θᵀDθ = 1 }` is the supply current at which
//! `G − i·D` loses positive definiteness; every entry of
//! `H(i) = (G − i·D)⁻¹` diverges to `+∞` as `i → λ_m⁻` (Theorem 2), i.e.
//! the package overheats without bound. The paper computes `λ_m` by binary
//! search with a Cholesky positive-definiteness probe per step; this module
//! wraps that search ([`tecopt_linalg::eigen::generalized_pd_threshold`])
//! with the cooling-system plumbing. The search runs over the placement's
//! own factorization ([`tecopt_device::StampedSystem::placement_factor`]):
//! the Peltier-free block of `G` is factored once per placement and every
//! probe is a `k×k` Cholesky of the Schur complement on the `k = 2 ×`
//! devices TEC terminal nodes, the same factor every later steady solve of
//! the placement refactors, so the search's verdict and the solves' cannot
//! disagree at the boundary.

use crate::{CoolingSystem, OptError};
use tecopt_linalg::eigen::DEFAULT_PROBE_BUDGET;
use tecopt_units::Amperes;

/// The computed runaway limit with search metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RunawayLimit {
    lower: f64,
    upper: f64,
    probes: usize,
}

impl RunawayLimit {
    /// Midpoint estimate of `λ_m`.
    pub fn lambda(&self) -> Amperes {
        Amperes(0.5 * (self.lower + self.upper))
    }

    /// A current guaranteed feasible: `G − i·D` was verified positive
    /// definite here.
    pub fn feasible(&self) -> Amperes {
        Amperes(self.lower)
    }

    /// A current guaranteed infeasible (past runaway).
    pub fn infeasible(&self) -> Amperes {
        Amperes(self.upper)
    }

    /// Bracket probes the search used, with the base factorization counted
    /// as the `i = 0` probe.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// A safe upper bound for current optimization: `fraction · λ_m` with
    /// `fraction < 1`, clamped to the verified-feasible bracket edge.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidParameter`] if `fraction` is NaN or not in
    /// `(0, 1)` — a fraction at or above 1 would permit probing past the
    /// runaway limit.
    pub fn search_ceiling(&self, fraction: f64) -> Result<Amperes, OptError> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(OptError::InvalidParameter(format!(
                "search-ceiling fraction must be in (0, 1), got {fraction}"
            )));
        }
        Ok(Amperes((self.lambda().value() * fraction).min(self.lower)))
    }
}

/// Computes `λ_m` for a cooling system with at least one deployed device.
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] if no TEC is deployed (`D = 0`, the
///   system is passive and has no runaway limit).
/// - [`OptError::InvalidParameter`] for a tolerance outside `(0, 1)`.
/// - Device or linear-algebra failures if `G` itself is not positive
///   definite (cannot happen for validly assembled packages).
pub fn runaway_limit(system: &CoolingSystem, rel_tol: f64) -> Result<RunawayLimit, OptError> {
    if system.device_count() == 0 {
        return Err(OptError::NoDevicesDeployed);
    }
    let family = system.stamped().placement_factor()?;
    let t = family
        .pd_threshold(rel_tol, DEFAULT_PROBE_BUDGET)
        .map_err(|e| match e {
            tecopt_linalg::LinalgError::InvalidInput(msg) => OptError::InvalidParameter(msg),
            other => OptError::Linalg(other),
        })?;
    Ok(RunawayLimit {
        lower: t.lower,
        upper: t.upper,
        probes: t.probes,
    })
}

/// The same search as [`runaway_limit`], kept under its older name.
///
/// # Errors
///
/// Same contract as [`runaway_limit`].
pub fn runaway_limit_fast(system: &CoolingSystem, rel_tol: f64) -> Result<RunawayLimit, OptError> {
    runaway_limit(system, rel_tol)
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
    fn passive_system_has_no_limit() {
        let s = system(&[]);
        assert!(matches!(
            runaway_limit(&s, 1e-9),
            Err(OptError::NoDevicesDeployed)
        ));
    }

    #[test]
    fn limit_brackets_the_pd_boundary() {
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = runaway_limit(&s, 1e-10).unwrap();
        // Below the limit the solve succeeds; above it reports runaway.
        assert!(s.solve(lim.feasible()).is_ok());
        match s.solve(Amperes(lim.infeasible().value() * 1.001)) {
            Err(OptError::BeyondRunaway { .. }) => {}
            other => panic!("expected runaway beyond the limit, got {other:?}"),
        }
        assert!(lim.probes() > 0);
        assert!(lim.lambda().value() > 0.0);
    }

    #[test]
    fn more_devices_do_not_raise_the_limit_much() {
        // The limit is governed by the weakest-coupled device; adding more
        // devices can only keep or lower it (min over a larger set).
        let one = runaway_limit(&system(&[TileIndex::new(1, 1)]), 1e-9).unwrap();
        let four = runaway_limit(
            &system(&[
                TileIndex::new(1, 1),
                TileIndex::new(0, 0),
                TileIndex::new(2, 2),
                TileIndex::new(3, 3),
            ]),
            1e-9,
        )
        .unwrap();
        assert!(four.lambda().value() <= one.lambda().value() * 1.01);
    }

    #[test]
    fn divergence_as_current_approaches_limit() {
        // Theorem 2: temperatures grow without bound as i -> lambda_m.
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = runaway_limit(&s, 1e-12).unwrap();
        let lam = lim.lambda().value();
        let peak_at = |f: f64| s.solve(Amperes(lam * f)).unwrap().peak().value();
        let p90 = peak_at(0.90);
        let p99 = peak_at(0.99);
        let p999 = peak_at(0.999);
        assert!(p99 > p90 + 1.0, "p99 {p99} vs p90 {p90}");
        assert!(p999 > p99, "p999 {p999} vs p99 {p99}");
        assert!(p999 > 200.0, "near-runaway peak should be absurd: {p999}");
    }

    #[test]
    fn search_ceiling_is_feasible() {
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = runaway_limit(&s, 1e-9).unwrap();
        let c = lim.search_ceiling(0.999).unwrap();
        assert!(c.value() <= lim.feasible().value());
        assert!(s.solve(c).is_ok());
    }

    #[test]
    fn bad_fraction_is_an_error_not_a_panic() {
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = runaway_limit(&s, 1e-9).unwrap();
        for bad in [1.5, 0.0, 1.0, -0.3, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(lim.search_ceiling(bad), Err(OptError::InvalidParameter(_))),
                "fraction {bad} must be rejected"
            );
        }
    }

    #[test]
    fn invalid_tolerance_rejected() {
        let s = system(&[TileIndex::new(1, 1)]);
        assert!(matches!(
            runaway_limit(&s, 0.0),
            Err(OptError::InvalidParameter(_))
        ));
    }
}
