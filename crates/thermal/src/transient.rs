//! Transient (RC) extension of the compact model.
//!
//! The paper restricts itself to steady state, but motivates active cooling
//! precisely because it can "operate synergistically" with thermal
//! monitoring and architecture-level thermal management — which is a
//! *dynamic* story. This module adds the capacitances back into the network
//! and integrates
//!
//! ```text
//! C·dθ/dt + A·θ = p(t)
//! ```
//!
//! with the unconditionally stable backward-Euler scheme
//! `(C/Δt + A)·θ_{n+1} = p + (C/Δt)·θ_n`. The system matrix `A` may be the
//! passive `G` or the active `G − i·D` at a fixed current; the higher-level
//! `tecopt::transient` simulator re-factors when a controller changes the
//! current, on one sparse Cholesky pattern ([`BackwardEuler::with_pattern`])
//! shared by every current and step size of the network.
//!
//! ```
//! use tecopt_linalg::DenseMatrix;
//! use tecopt_thermal::transient::BackwardEuler;
//!
//! # fn main() -> Result<(), tecopt_thermal::ThermalError> {
//! // A single RC node: C dθ/dt + g θ = p, time constant C/g = 1 s.
//! let a = DenseMatrix::from_rows(&[&[2.0]]).map_err(tecopt_thermal::ThermalError::from)?;
//! let stepper = BackwardEuler::new(&a, &[2.0], 0.1)?;
//! let mut theta = vec![0.0];
//! for _ in 0..100 {
//!     theta = stepper.step(&theta, &[2.0])?;
//! }
//! // Settles to the steady state p/g = 1.
//! assert!((theta[0] - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::ThermalError;
use tecopt_linalg::{Cholesky, CholeskyPattern, DenseMatrix};

/// A factored backward-Euler stepper for a fixed system matrix and step.
#[derive(Debug, Clone)]
pub struct BackwardEuler {
    chol: Cholesky,
    c_over_dt: Vec<f64>,
    dt: f64,
}

impl BackwardEuler {
    /// Analyses and factors `(C/Δt + A)` for repeated stepping.
    ///
    /// # Errors
    ///
    /// - [`ThermalError::InvalidConfig`] for a nonpositive step or
    ///   capacitance, or mismatched lengths.
    /// - [`ThermalError::Linalg`] if `C/Δt + A` is not positive definite —
    ///   with positive capacitances this only happens when `A = G − i·D` is
    ///   *deeply* indefinite (far beyond runaway) relative to `C/Δt`; mild
    ///   super-runaway currents integrate fine and simply diverge in time,
    ///   which is the physical behaviour.
    pub fn new(
        a: &DenseMatrix,
        capacitance: &[f64],
        dt: f64,
    ) -> Result<BackwardEuler, ThermalError> {
        let (m, c_over_dt) = Self::stepping_matrix(a, capacitance, dt)?;
        let pattern = Arc::new(CholeskyPattern::analyse(&m).map_err(ThermalError::from)?);
        Self::factor(&pattern, &m, c_over_dt, dt)
    }

    /// [`BackwardEuler::new`] on a Cholesky pattern analysed before — from
    /// `A` itself or any matrix of the same off-diagonal nonzeros, since
    /// `C/Δt` is diagonal. The factor is bit-identical to the one
    /// [`BackwardEuler::new`] builds on an equal pattern.
    ///
    /// # Errors
    ///
    /// As [`BackwardEuler::new`], plus [`ThermalError::Linalg`] when `A`
    /// has a nonzero outside `pattern`.
    pub fn with_pattern(
        pattern: &Arc<CholeskyPattern>,
        a: &DenseMatrix,
        capacitance: &[f64],
        dt: f64,
    ) -> Result<BackwardEuler, ThermalError> {
        let (m, c_over_dt) = Self::stepping_matrix(a, capacitance, dt)?;
        Self::factor(pattern, &m, c_over_dt, dt)
    }

    /// Validates the inputs and forms `C/Δt + A` and `C/Δt`.
    fn stepping_matrix(
        a: &DenseMatrix,
        capacitance: &[f64],
        dt: f64,
    ) -> Result<(DenseMatrix, Vec<f64>), ThermalError> {
        if dt <= 0.0 || !dt.is_finite() {
            return Err(ThermalError::InvalidConfig(format!(
                "time step must be positive and finite, got {dt}"
            )));
        }
        if capacitance.len() != a.rows() {
            return Err(ThermalError::InvalidConfig(format!(
                "capacitance vector has {} entries, system has {} nodes",
                capacitance.len(),
                a.rows()
            )));
        }
        if capacitance.iter().any(|&c| c <= 0.0 || !c.is_finite()) {
            return Err(ThermalError::InvalidConfig(
                "capacitances must be positive and finite".into(),
            ));
        }
        let c_over_dt: Vec<f64> = capacitance.iter().map(|c| c / dt).collect();
        let mut m = a.clone();
        m.add_scaled_diagonal(&c_over_dt, 1.0)
            .map_err(ThermalError::from)?;
        Ok((m, c_over_dt))
    }

    fn factor(
        pattern: &Arc<CholeskyPattern>,
        m: &DenseMatrix,
        c_over_dt: Vec<f64>,
        dt: f64,
    ) -> Result<BackwardEuler, ThermalError> {
        let chol = Cholesky::factor_with(pattern, m).map_err(ThermalError::from)?;
        Ok(BackwardEuler {
            chol,
            c_over_dt,
            dt,
        })
    }

    /// The time step this stepper was factored for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of nodes.
    pub fn dim(&self) -> usize {
        self.c_over_dt.len()
    }

    /// Advances one step: solves `(C/Δt + A)·θ' = p + (C/Δt)·θ`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Linalg`] on length mismatches.
    pub fn step(&self, theta: &[f64], p: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let n = self.dim();
        if theta.len() != n || p.len() != n {
            return Err(ThermalError::Linalg(
                tecopt_linalg::LinalgError::DimensionMismatch {
                    expected: n,
                    actual: theta.len().min(p.len()),
                },
            ));
        }
        let rhs: Vec<f64> = p
            .iter()
            .zip(theta)
            .zip(&self.c_over_dt)
            .map(|((pi, ti), ci)| pi + ci * ti)
            .collect();
        self.chol.solve(&rhs).map_err(ThermalError::from)
    }

    /// Integrates until the update norm falls below `tol` (relative to the
    /// state norm) or `max_steps` is reached; returns the final state and
    /// the number of steps taken.
    ///
    /// # Errors
    ///
    /// Propagates stepping errors.
    pub fn settle(
        &self,
        mut theta: Vec<f64>,
        p: &[f64],
        tol: f64,
        max_steps: usize,
    ) -> Result<(Vec<f64>, usize), ThermalError> {
        for step in 1..=max_steps {
            let next = self.step(&theta, p)?;
            let mut diff = 0.0_f64;
            let mut norm = 0.0_f64;
            for (a, b) in next.iter().zip(&theta) {
                diff += (a - b) * (a - b);
                norm += a * a;
            }
            theta = next;
            if diff.sqrt() <= tol * norm.sqrt().max(1e-300) {
                return Ok((theta, step));
            }
        }
        Ok((theta, max_steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompactModel, PackageConfig};
    use tecopt_units::Watts;

    #[test]
    fn single_rc_matches_analytic_exponential() {
        // C dθ/dt + g θ = 0 from θ(0) = 1: θ(t) = exp(-g t / C).
        let g = 0.5;
        let c = 2.0;
        let dt = 1e-3;
        let a = DenseMatrix::from_rows(&[&[g]]).unwrap();
        let stepper = BackwardEuler::new(&a, &[c], dt).unwrap();
        let mut theta = vec![1.0];
        let steps = 4000; // t = 4 s, one time constant = C/g = 4 s
        for _ in 0..steps {
            theta = stepper.step(&theta, &[0.0]).unwrap();
        }
        let analytic = (-g * (steps as f64 * dt) / c).exp();
        assert!(
            (theta[0] - analytic).abs() < 2e-3,
            "{} vs analytic {analytic}",
            theta[0]
        );
    }

    #[test]
    fn transient_settles_to_steady_state() {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let model = CompactModel::new(&config).unwrap();
        let mut powers = vec![Watts(0.05); 16];
        powers[5] = Watts(0.5);
        let steady = model.solve_passive(&powers).unwrap();
        let p = model.power_vector(&powers).unwrap();
        let cap = model.capacitance_vector();
        let ambient = config.ambient().to_kelvin().value();
        let stepper = BackwardEuler::new(model.g_matrix(), &cap, 0.05).unwrap();
        let start = vec![ambient; model.node_count()];
        let (theta, steps) = stepper.settle(start, &p, 1e-10, 200_000).unwrap();
        assert!(steps < 200_000, "did not settle");
        for (t, s) in theta.iter().zip(&steady) {
            assert!((t - s.value()).abs() < 1e-3, "{t} vs steady {}", s.value());
        }
    }

    #[test]
    fn silicon_heats_faster_than_the_sink() {
        // The die has microseconds-to-milliseconds of thermal mass, the
        // sink has tens of seconds: shortly after power-on the die is warm
        // while the sink has barely moved.
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let model = CompactModel::new(&config).unwrap();
        let powers = vec![Watts(0.3); 16];
        let p = model.power_vector(&powers).unwrap();
        let cap = model.capacitance_vector();
        let ambient = config.ambient().to_kelvin().value();
        let stepper = BackwardEuler::new(model.g_matrix(), &cap, 0.01).unwrap();
        let mut theta = vec![ambient; model.node_count()];
        for _ in 0..20 {
            theta = stepper.step(&theta, &p).unwrap(); // t = 0.2 s
        }
        let die_rise = theta[model.silicon_nodes()[5].index()] - ambient;
        let sink_rise = theta[model.sink_nodes()[0].index()] - ambient;
        assert!(
            die_rise > 5.0 * sink_rise.max(1e-9),
            "die rise {die_rise} vs sink rise {sink_rise}"
        );
    }

    #[test]
    fn capacitances_are_positive_and_layer_ordered() {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let model = CompactModel::new(&config).unwrap();
        let cap = model.capacitance_vector();
        assert_eq!(cap.len(), model.node_count());
        assert!(cap.iter().all(|&c| c > 0.0));
        // Sink cells dwarf die tiles in thermal mass.
        let c_die = cap[model.silicon_nodes()[0].index()];
        let c_sink = cap[model.sink_nodes()[0].index()];
        assert!(c_sink > 100.0 * c_die);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let a = DenseMatrix::identity(2);
        assert!(BackwardEuler::new(&a, &[1.0, 1.0], 0.0).is_err());
        assert!(BackwardEuler::new(&a, &[1.0], 0.1).is_err());
        assert!(BackwardEuler::new(&a, &[1.0, -1.0], 0.1).is_err());
        let ok = BackwardEuler::new(&a, &[1.0, 1.0], 0.1).unwrap();
        assert!(ok.step(&[0.0], &[0.0, 0.0]).is_err());
        assert_eq!(ok.dim(), 2);
        assert_eq!(ok.dt(), 0.1);
    }
}
