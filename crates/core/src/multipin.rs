//! Multi-pin extension: independently controlled TEC groups.
//!
//! The paper restricts the cooling system to **one** extra package pin, so
//! every device shares a single supply current (Sec. III.B: "we focus \[on\]
//! the simplest setting where only one extra pin is added"). This module
//! explores the natural generalization it implies: partition the deployed
//! devices into `k` groups, each behind its own pin with its own current,
//! giving the steady state
//!
//! ```text
//! (G − Σ_g i_g·D_g)·θ = p(i_1, …, i_k)
//! ```
//!
//! The feasible set `{i ⪰ 0 : G − Σ i_g·D_g ≻ 0}` is convex (positive
//! definiteness of a matrix affine in `i` is a convex constraint), and each
//! tile temperature inherits the single-pin convexity structure along every
//! axis, so cyclic coordinate descent with a golden-section line search per
//! pin converges to the joint optimum under the same Conjecture-1
//! assumptions as the single-pin solver.
//!
//! ```
//! use tecopt::multipin::MultiPinSystem;
//! use tecopt::{PackageConfig, TecParams, TileIndex};
//! use tecopt_units::{Amperes, Watts};
//!
//! # fn main() -> Result<(), tecopt::OptError> {
//! let config = PackageConfig::hotspot41_like(4, 4)?;
//! let mut powers = vec![Watts(0.05); 16];
//! powers[5] = Watts(0.6);
//! powers[10] = Watts(0.3);
//! let groups = vec![
//!     vec![TileIndex::new(1, 1)],
//!     vec![TileIndex::new(2, 2)],
//! ];
//! let system = MultiPinSystem::new(
//!     &config,
//!     TecParams::superlattice_thin_film(),
//!     &groups,
//!     powers,
//! )?;
//! let state = system.solve(&[Amperes(3.0), Amperes(1.0)])?;
//! assert!(state.peak().value() > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::supervise::RunContext;
use crate::{CoolingSystem, OptError};
use tecopt_device::TecParams;
use tecopt_linalg::eigen::generalized_pd_threshold;
use tecopt_linalg::{Cholesky, CsrMatrix};
use tecopt_thermal::{PackageConfig, TileIndex};
use tecopt_units::{Amperes, Celsius, Kelvin, Watts};

/// A cooling system whose devices are split across several pins.
#[derive(Debug, Clone)]
pub struct MultiPinSystem {
    inner: CoolingSystem,
    /// Group index per deployed tile (deployment order of `inner`).
    group_of_device: Vec<usize>,
    /// Signed-α D diagonal per group.
    d_groups: Vec<Vec<f64>>,
    /// Joule node indices per group.
    joule_groups: Vec<Vec<usize>>,
}

/// A solved multi-pin steady state.
#[derive(Debug, Clone)]
pub struct MultiPinState {
    currents: Vec<Amperes>,
    temps: Vec<Kelvin>,
    peak: Celsius,
    tec_power: Watts,
}

impl MultiPinState {
    /// The per-pin currents this state was solved at.
    pub fn currents(&self) -> &[Amperes] {
        &self.currents
    }

    /// Full node temperatures.
    pub fn node_temperatures(&self) -> &[Kelvin] {
        &self.temps
    }

    /// Peak silicon temperature.
    pub fn peak(&self) -> Celsius {
        self.peak
    }

    /// Total electrical power over all groups.
    pub fn tec_power(&self) -> Watts {
        self.tec_power
    }
}

impl MultiPinSystem {
    /// Builds the system from disjoint tile groups.
    ///
    /// # Errors
    ///
    /// - [`OptError::InvalidParameter`] for an empty group list, an empty
    ///   group, or a tile in two groups.
    /// - Construction errors from the underlying single-pin machinery.
    pub fn new(
        config: &PackageConfig,
        params: TecParams,
        groups: &[Vec<TileIndex>],
        tile_powers: Vec<Watts>,
    ) -> Result<MultiPinSystem, OptError> {
        if groups.is_empty() {
            return Err(OptError::InvalidParameter(
                "multi-pin system needs at least one group".into(),
            ));
        }
        let mut all_tiles = Vec::new();
        let mut group_of_device = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (g, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(OptError::InvalidParameter(format!(
                    "pin group {g} is empty"
                )));
            }
            for t in group {
                if !seen.insert(*t) {
                    return Err(OptError::InvalidParameter(format!(
                        "tile {t} appears in more than one pin group"
                    )));
                }
                all_tiles.push(*t);
                group_of_device.push(g);
            }
        }
        let inner = CoolingSystem::new(config, params, &all_tiles, tile_powers)?;
        let n = inner.stamped().model().node_count();
        let alpha = inner.stamped().params().seebeck().value();
        let mut d_groups = vec![vec![0.0; n]; groups.len()];
        let mut joule_groups = vec![Vec::new(); groups.len()];
        for (device, &(cold, hot)) in inner.stamped().junctions().iter().enumerate() {
            let g = group_of_device[device];
            d_groups[g][hot] = alpha;
            d_groups[g][cold] = -alpha;
            joule_groups[g].push(cold);
            joule_groups[g].push(hot);
        }
        Ok(MultiPinSystem {
            inner,
            group_of_device,
            d_groups,
            joule_groups,
        })
    }

    /// Number of pins (groups).
    pub fn pin_count(&self) -> usize {
        self.d_groups.len()
    }

    /// Number of devices in a group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn group_size(&self, group: usize) -> usize {
        self.group_of_device.iter().filter(|&&g| g == group).count()
    }

    /// The underlying single-current system (all groups merged).
    pub fn as_single_pin(&self) -> &CoolingSystem {
        &self.inner
    }

    /// Assembles `G − Σ_g i_g·D_g` in CSR, with the structure of `G`.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidParameter`] for a wrong-length or
    /// negative current vector.
    pub fn system_matrix(&self, currents: &[Amperes]) -> Result<CsrMatrix, OptError> {
        self.check_currents(currents)?;
        let mut m = self.inner.stamped().model().g_matrix().clone();
        for (d, i) in self.d_groups.iter().zip(currents) {
            m.add_scaled_diagonal(d, -i.value())
                .map_err(tecopt_thermal::ThermalError::from)?;
        }
        Ok(m)
    }

    /// Solves the steady state at the given per-pin currents.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BeyondRunaway`] if the current vector lies
    /// outside the positive-definite region.
    pub fn solve(&self, currents: &[Amperes]) -> Result<MultiPinState, OptError> {
        let m = self.system_matrix(currents)?;
        let mut p = self
            .inner
            .stamped()
            .model()
            .power_vector(self.inner.tile_powers())?;
        let r = self.inner.stamped().params().resistance().value();
        for (nodes, i) in self.joule_groups.iter().zip(currents) {
            let joule = 0.5 * r * i.value() * i.value();
            for &k in nodes {
                p[k] += joule;
            }
        }
        let pattern = self.inner.stamped().model().cholesky_pattern()?;
        let chol = Cholesky::factor_csr_with(pattern, &m).map_err(|e| match e {
            tecopt_linalg::LinalgError::NotPositiveDefinite { .. } => OptError::BeyondRunaway {
                current: currents.iter().map(|i| i.value()).fold(0.0, f64::max),
            },
            other => OptError::Linalg(other),
        })?;
        let theta = chol.solve(&p).map_err(OptError::from)?;
        let temps: Vec<Kelvin> = theta.into_iter().map(Kelvin).collect();
        let model = self.inner.stamped().model();
        let peak = model
            .silicon_nodes()
            .iter()
            .map(|id| temps[id.index()].to_celsius())
            .fold(Celsius(f64::NEG_INFINITY), Celsius::max);
        // Total electrical power: per device r·i_g² + α·i_g·Δθ.
        let alpha = self.inner.stamped().params().seebeck().value();
        let mut tec_power = 0.0;
        for (device, &(cold, hot)) in self.inner.stamped().junctions().iter().enumerate() {
            let i = currents[self.group_of_device[device]].value();
            let delta = temps[hot].value() - temps[cold].value();
            tec_power += r * i * i + alpha * i * delta;
        }
        Ok(MultiPinState {
            currents: currents.to_vec(),
            temps,
            peak,
            tec_power: Watts(tec_power),
        })
    }

    /// The runaway limit along one coordinate axis from a feasible point:
    /// the largest `i_g` keeping `G − Σ i·D` positive definite with the
    /// other currents held fixed.
    ///
    /// # Errors
    ///
    /// Propagates PD-bisection failures (e.g. if the fixed point is already
    /// infeasible).
    pub fn axis_limit(&self, currents: &[Amperes], group: usize) -> Result<Amperes, OptError> {
        self.check_currents(currents)?;
        if group >= self.pin_count() {
            return Err(OptError::InvalidParameter(format!(
                "group {group} out of range for {} pins",
                self.pin_count()
            )));
        }
        // G' = G − Σ_{h≠g} i_h D_h; search t with G' − t·D_g.
        let mut g_fixed = self.inner.stamped().model().g_matrix().clone();
        for (h, (d, i)) in self.d_groups.iter().zip(currents).enumerate() {
            if h != group {
                g_fixed
                    .add_scaled_diagonal(d, -i.value())
                    .map_err(tecopt_thermal::ThermalError::from)?;
            }
        }
        let t = generalized_pd_threshold(&g_fixed, &self.d_groups[group], 1e-9)
            .map_err(OptError::from)?;
        Ok(Amperes(t.lower))
    }

    /// Jointly optimizes the per-pin currents by cyclic coordinate descent
    /// (golden-section line search per pin). Returns the best state found.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; validates `max_sweeps > 0`.
    pub fn optimize(&self, max_sweeps: usize, tolerance: f64) -> Result<MultiPinState, OptError> {
        self.optimize_supervised(max_sweeps, tolerance, &RunContext::unbounded())
    }

    /// [`MultiPinSystem::optimize`] under a [`RunContext`]: the token,
    /// deadline and probe budget are consulted before every steady-state
    /// evaluation of the line search, so a raised token or an expired
    /// budget stops the descent at the next probe boundary with a typed
    /// error instead of running the remaining sweeps.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MultiPinSystem::optimize`], plus
    /// [`OptError::Cancelled`] and [`OptError::DeadlineExceeded`].
    pub fn optimize_supervised(
        &self,
        max_sweeps: usize,
        tolerance: f64,
        ctx: &RunContext,
    ) -> Result<MultiPinState, OptError> {
        if max_sweeps == 0 {
            return Err(OptError::InvalidParameter(
                "need at least one coordinate sweep".into(),
            ));
        }
        if tolerance <= 0.0 || tolerance.is_nan() {
            return Err(OptError::InvalidParameter(format!(
                "tolerance must be positive, got {tolerance}"
            )));
        }
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        let k = self.pin_count();
        let mut currents = vec![Amperes(0.0); k];
        let mut best = self.solve(&currents)?;
        for _sweep in 0..max_sweeps {
            let sweep_start = best.peak().value();
            for g in 0..k {
                let ceiling = 0.995 * self.axis_limit(&currents, g)?.value();
                // Golden section along axis g. Probes never mutate the
                // shared iterate: each clones it, sets axis g, and solves —
                // the winning current is written back explicitly below.
                let mut a = 0.0_f64;
                let mut b = ceiling;
                let eval_at = |i: f64| -> Result<MultiPinState, OptError> {
                    ctx.admit_probe()?;
                    let mut probe = currents.clone();
                    probe[g] = Amperes(i);
                    self.solve(&probe)
                };
                let mut c = b - INV_PHI * (b - a);
                let mut d = a + INV_PHI * (b - a);
                // The two seed probes are independent factorizations — run
                // them side by side; every later iteration adds only one
                // new probe, so the loop itself stays sequential.
                let (fc_seed, fd_seed) = crate::parallel::join(|| eval_at(c), || eval_at(d));
                let mut fc = fc_seed?;
                let mut fd = fd_seed?;
                while (b - a) > tolerance {
                    if fc.peak() <= fd.peak() {
                        b = d;
                        d = c;
                        std::mem::swap(&mut fd, &mut fc);
                        c = b - INV_PHI * (b - a);
                        fc = eval_at(c)?;
                    } else {
                        a = c;
                        c = d;
                        std::mem::swap(&mut fc, &mut fd);
                        d = a + INV_PHI * (b - a);
                        fd = eval_at(d)?;
                    }
                }
                let (i_best, state) = if fc.peak() <= fd.peak() {
                    (c, fc)
                } else {
                    (d, fd)
                };
                // Keep the axis origin if it beats the interior optimum.
                ctx.admit_probe()?;
                currents[g] = Amperes(0.0);
                let at_zero = self.solve(&currents)?;
                if at_zero.peak() <= state.peak() {
                    if at_zero.peak() < best.peak() {
                        best = at_zero;
                    }
                } else {
                    currents[g] = Amperes(i_best);
                    if state.peak() < best.peak() {
                        best = state;
                    }
                }
            }
            if sweep_start - best.peak().value() < 1e-4 {
                break;
            }
        }
        // Re-solve at the final currents so the state matches them exactly.
        self.solve(&currents_of(&best))
    }

    fn check_currents(&self, currents: &[Amperes]) -> Result<(), OptError> {
        if currents.len() != self.pin_count() {
            return Err(OptError::InvalidParameter(format!(
                "expected {} currents, got {}",
                self.pin_count(),
                currents.len()
            )));
        }
        if currents.iter().any(|i| i.value() < 0.0 || !i.is_finite()) {
            return Err(OptError::InvalidParameter(
                "currents must be nonnegative and finite".into(),
            ));
        }
        Ok(())
    }
}

fn currents_of(state: &MultiPinState) -> Vec<Amperes> {
    state.currents().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize_current, CurrentSettings};

    fn config() -> PackageConfig {
        PackageConfig::hotspot41_like(4, 4).unwrap()
    }

    fn powers() -> Vec<Watts> {
        let mut p = vec![Watts(0.05); 16];
        p[5] = Watts(0.6); // strong hotspot at (1,1)
        p[10] = Watts(0.25); // weak hotspot at (2,2)
        p
    }

    fn two_pin() -> MultiPinSystem {
        MultiPinSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &[vec![TileIndex::new(1, 1)], vec![TileIndex::new(2, 2)]],
            powers(),
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_groups() {
        let cfg = config();
        let p = powers();
        assert!(matches!(
            MultiPinSystem::new(&cfg, TecParams::superlattice_thin_film(), &[], p.clone()),
            Err(OptError::InvalidParameter(_))
        ));
        assert!(matches!(
            MultiPinSystem::new(
                &cfg,
                TecParams::superlattice_thin_film(),
                &[vec![]],
                p.clone()
            ),
            Err(OptError::InvalidParameter(_))
        ));
        assert!(matches!(
            MultiPinSystem::new(
                &cfg,
                TecParams::superlattice_thin_film(),
                &[vec![TileIndex::new(1, 1)], vec![TileIndex::new(1, 1)]],
                p
            ),
            Err(OptError::InvalidParameter(_))
        ));
    }

    #[test]
    fn equal_currents_reproduce_single_pin() {
        let mp = two_pin();
        let single = mp.as_single_pin();
        for i in [0.0, 2.0, 4.0] {
            let s1 = single.solve(Amperes(i)).unwrap();
            let s2 = mp.solve(&[Amperes(i), Amperes(i)]).unwrap();
            assert!(
                (s1.peak().value() - s2.peak().value()).abs() < 1e-9,
                "i = {i}: {:?} vs {:?}",
                s1.peak(),
                s2.peak()
            );
            assert!((s1.tec_power().value() - s2.tec_power().value()).abs() < 1e-9);
        }
    }

    #[test]
    fn axis_limits_match_single_pin_runaway_at_origin() {
        // With the other pin at zero, the axis limit of a group equals the
        // single-pin runaway limit of a system with only that group.
        let mp = two_pin();
        let axis0 = mp.axis_limit(&[Amperes(0.0), Amperes(0.0)], 0).unwrap();
        let solo = CoolingSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1), TileIndex::new(2, 2)],
            powers(),
        )
        .unwrap();
        // Not identical (the solo system's D couples both devices to one
        // current), but both must be in the same physical range.
        let lim = crate::runaway_limit(&solo, 1e-9).unwrap();
        assert!(axis0.value() > lim.lambda().value() * 0.5);
        assert!(axis0.value() < lim.lambda().value() * 10.0);
        assert!(mp.axis_limit(&[Amperes(0.0), Amperes(0.0)], 2).is_err());
    }

    #[test]
    fn two_pins_beat_one_shared_current() {
        // Hotspots of different intensity want different currents; the
        // multi-pin optimum can only be at least as good as the best shared
        // current.
        let mp = two_pin();
        let shared = optimize_current(mp.as_single_pin(), CurrentSettings::default()).unwrap();
        let multi = mp.optimize(6, 1e-3).unwrap();
        assert!(
            multi.peak().value() <= shared.state().peak().value() + 1e-6,
            "multi-pin {:?} worse than shared {:?}",
            multi.peak(),
            shared.state().peak()
        );
        // And the optimizer exploits the freedom: the strong hotspot's pin
        // carries more current than the weak one's.
        assert!(
            multi.currents()[0] > multi.currents()[1],
            "currents {:?}",
            multi.currents()
        );
    }

    #[test]
    fn beyond_feasible_region_is_reported() {
        let mp = two_pin();
        let err = mp.solve(&[Amperes(1e5), Amperes(0.0)]).unwrap_err();
        assert!(matches!(err, OptError::BeyondRunaway { .. }));
        assert!(mp.solve(&[Amperes(1.0)]).is_err());
        assert!(mp.solve(&[Amperes(-1.0), Amperes(0.0)]).is_err());
    }

    #[test]
    fn optimize_validates_inputs() {
        let mp = two_pin();
        assert!(mp.optimize(0, 1e-3).is_err());
        assert!(mp.optimize(3, 0.0).is_err());
    }

    #[test]
    fn group_accounting() {
        let mp = MultiPinSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &[
                vec![TileIndex::new(1, 1), TileIndex::new(1, 2)],
                vec![TileIndex::new(2, 2)],
            ],
            powers(),
        )
        .unwrap();
        assert_eq!(mp.pin_count(), 2);
        assert_eq!(mp.group_size(0), 2);
        assert_eq!(mp.group_size(1), 1);
        assert_eq!(mp.as_single_pin().device_count(), 3);
    }
}
