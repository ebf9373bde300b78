//! Transient co-simulation of the cooling system with a supply-current
//! controller — the "synergistic operation" of active cooling, thermal
//! monitoring and dynamic thermal management that the paper's introduction
//! motivates (Sec. I) but leaves to future work.
//!
//! The simulator integrates `C·dθ/dt + (G − i·D)·θ = p(t, i)` with backward
//! Euler (see [`tecopt_thermal::transient`]), re-factoring whenever the
//! controller changes the current. Controllers implement [`TecController`]
//! and see exactly what an on-die thermal monitor would: the current peak
//! silicon temperature.
//!
//! ```
//! use tecopt::transient::{BangBangController, TransientSimulator};
//! use tecopt::{CoolingSystem, PackageConfig, TecParams, TileIndex};
//! use tecopt_units::{Amperes, Celsius, Watts};
//!
//! # fn main() -> Result<(), tecopt::OptError> {
//! let config = PackageConfig::hotspot41_like(4, 4)?;
//! let mut powers = vec![Watts(0.05); 16];
//! powers[5] = Watts(0.6);
//! let system = CoolingSystem::new(
//!     &config,
//!     TecParams::superlattice_thin_film(),
//!     &[TileIndex::new(1, 1)],
//!     powers.clone(),
//! )?;
//! let mut sim = TransientSimulator::new(system, 0.05)?;
//! let mut controller = BangBangController::new(Celsius(80.0), Celsius(78.0), Amperes(4.0));
//! let trace = sim.run(&powers, &mut controller, 10.0)?;
//! assert!(!trace.samples().is_empty());
//! # Ok(())
//! # }
//! ```

use core::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
#[cfg(test)]
use std::sync::Arc;

use crate::parallel::panic_message;
use crate::record::{
    fields, fingerprint, hex_f64, read, Field, Group, Header, Hex, List, RecordFile,
};
use crate::supervise::RunContext;
use crate::{CoolingSystem, OptError};
use tecopt_thermal::transient::BackwardEuler;
use tecopt_thermal::ThermalError;
use tecopt_units::{Amperes, Celsius, Kelvin, Watts};

/// `kind` field of a transient-playback checkpoint file.
const CHECKPOINT_KIND: &str = "transient-playback";

/// One recorded instant of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSample {
    /// Simulation time in seconds (at the *end* of the step).
    pub time: f64,
    /// Peak silicon temperature.
    pub peak: Celsius,
    /// Supply current applied during the step.
    pub current: Amperes,
    /// Electrical power the TEC array drew during the step.
    pub tec_power: Watts,
}

/// A recorded transient trajectory.
#[derive(Debug, Clone, Default)]
pub struct TransientTrace {
    samples: Vec<TransientSample>,
}

impl TransientTrace {
    /// Builds a trace directly from recorded samples (property tests and
    /// checkpoint resume).
    pub fn from_samples(samples: Vec<TransientSample>) -> TransientTrace {
        TransientTrace { samples }
    }

    /// The recorded samples in time order.
    pub fn samples(&self) -> &[TransientSample] {
        &self.samples
    }

    /// Hottest moment of the run.
    pub fn peak(&self) -> Option<Celsius> {
        self.samples
            .iter()
            .map(|s| s.peak)
            .fold(None, |acc, p| Some(acc.map_or(p, |a: Celsius| a.max(p))))
    }

    /// Electrical energy the TEC array consumed over the run, in joules
    /// (rectangle rule over the recorded steps).
    pub fn tec_energy_joules(&self, dt: f64) -> f64 {
        self.samples.iter().map(|s| s.tec_power.value() * dt).sum()
    }

    /// Fraction of samples whose peak exceeded `limit`.
    pub fn violation_fraction(&self, limit: Celsius) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let over = self.samples.iter().filter(|s| s.peak > limit).count();
        over as f64 / self.samples.len() as f64
    }
}

/// A supply-current control policy driven by the monitored peak
/// temperature.
pub trait TecController {
    /// Chooses the current for the next step given the latest monitor
    /// reading.
    fn next_current(&mut self, peak: Celsius) -> Amperes;
}

impl<T: TecController + ?Sized> TecController for Box<T> {
    fn next_current(&mut self, peak: Celsius) -> Amperes {
        (**self).next_current(peak)
    }
}

/// Always-on constant current (the paper's static operating point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantCurrent(pub Amperes);

impl TecController for ConstantCurrent {
    fn next_current(&mut self, _peak: Celsius) -> Amperes {
        self.0
    }
}

/// Hysteretic on/off control: switch the cooler on above `upper`, off
/// below `lower`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BangBangController {
    upper: Celsius,
    lower: Celsius,
    on_current: Amperes,
    engaged: bool,
}

impl BangBangController {
    /// Creates the controller; `upper` must exceed `lower`.
    ///
    /// # Panics
    ///
    /// Panics if the hysteresis band is empty or the current is negative.
    pub fn new(upper: Celsius, lower: Celsius, on_current: Amperes) -> BangBangController {
        assert!(upper > lower, "hysteresis band is empty");
        assert!(on_current.value() >= 0.0, "negative on-current");
        BangBangController {
            upper,
            lower,
            on_current,
            engaged: false,
        }
    }

    /// Whether the cooler is currently switched on.
    pub fn is_engaged(&self) -> bool {
        self.engaged
    }
}

impl TecController for BangBangController {
    fn next_current(&mut self, peak: Celsius) -> Amperes {
        if peak > self.upper {
            self.engaged = true;
        } else if peak < self.lower {
            self.engaged = false;
        }
        if self.engaged {
            self.on_current
        } else {
            Amperes(0.0)
        }
    }
}

/// Proportional control toward a target peak temperature, clamped to
/// `[0, max_current]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionalController {
    target: Celsius,
    /// Gain in amperes per kelvin of error.
    gain: f64,
    max_current: Amperes,
}

impl ProportionalController {
    /// Creates the controller.
    ///
    /// # Panics
    ///
    /// Panics for a nonpositive gain or maximum current.
    pub fn new(target: Celsius, gain: f64, max_current: Amperes) -> ProportionalController {
        assert!(gain > 0.0, "gain must be positive");
        assert!(max_current.value() > 0.0, "max current must be positive");
        ProportionalController {
            target,
            gain,
            max_current,
        }
    }
}

impl TecController for ProportionalController {
    fn next_current(&mut self, peak: Celsius) -> Amperes {
        let error = peak.value() - self.target.value();
        Amperes((self.gain * error).clamp(0.0, self.max_current.value()))
    }
}

/// Decorates a controller with actuator realism: the commanded current can
/// change by at most `max_delta` per control step and is snapped to a
/// `quantum` grid.
///
/// The slew limit is what makes sampled control of this plant well behaved:
/// the die itself is quasi-static at any practical monitor period (its
/// local time constant is sub-millisecond), so an unconstrained controller
/// chatters between the on/off quasi-steady temperature maps. With the
/// current as a slow actuator state, the loop settles smoothly. The
/// quantum keeps the number of distinct currents small, which the
/// simulator's factorization cache rewards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlewLimited<C> {
    inner: C,
    max_delta: f64,
    quantum: f64,
    last: f64,
}

impl<C: TecController> SlewLimited<C> {
    /// Wraps `inner`; the output moves toward its command by at most
    /// `max_delta` per step, snapped to multiples of `quantum`.
    ///
    /// # Panics
    ///
    /// Panics for nonpositive `max_delta` or `quantum`.
    pub fn new(inner: C, max_delta: Amperes, quantum: Amperes) -> SlewLimited<C> {
        assert!(max_delta.value() > 0.0, "slew limit must be positive");
        assert!(quantum.value() > 0.0, "quantum must be positive");
        SlewLimited {
            inner,
            max_delta: max_delta.value(),
            quantum: quantum.value(),
            last: 0.0,
        }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: TecController> TecController for SlewLimited<C> {
    fn next_current(&mut self, peak: Celsius) -> Amperes {
        let target = self.inner.next_current(peak).value();
        let stepped = self.last + (target - self.last).clamp(-self.max_delta, self.max_delta);
        let snapped = (stepped / self.quantum).round() * self.quantum;
        self.last = snapped.max(0.0);
        Amperes(self.last)
    }
}

/// A serializable controller description: what travels over the serve
/// wire and into checkpoint fingerprints.
///
/// Unlike the panicking controller constructors, [`ControllerSpec::build`]
/// validates the parameters and returns a typed error, so untrusted input
/// (a wire frame, a config file) can never abort the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerSpec {
    /// An always-on [`ConstantCurrent`].
    Constant {
        /// The constant supply current.
        current: Amperes,
    },
    /// A hysteretic [`BangBangController`].
    BangBang {
        /// Switch-on threshold.
        upper: Celsius,
        /// Switch-off threshold; must be below `upper`.
        lower: Celsius,
        /// Current applied while engaged.
        on_current: Amperes,
    },
    /// A [`ProportionalController`].
    Proportional {
        /// Target peak temperature.
        target: Celsius,
        /// Gain in amperes per kelvin of error.
        gain: f64,
        /// Output clamp.
        max_current: Amperes,
    },
}

impl ControllerSpec {
    /// Validates the parameters and constructs the controller.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidParameter`] for non-finite fields, a
    /// negative constant or on-current, an empty hysteresis band, or a
    /// nonpositive gain or current clamp.
    pub fn build(&self) -> Result<Box<dyn TecController + Send>, OptError> {
        match *self {
            ControllerSpec::Constant { current } => {
                if !current.value().is_finite() || current.value() < 0.0 {
                    return Err(OptError::InvalidParameter(format!(
                        "constant controller current must be finite and nonnegative, got {}",
                        current.value()
                    )));
                }
                Ok(Box::new(ConstantCurrent(current)))
            }
            ControllerSpec::BangBang {
                upper,
                lower,
                on_current,
            } => {
                if !upper.value().is_finite()
                    || !lower.value().is_finite()
                    || upper.value() <= lower.value()
                {
                    return Err(OptError::InvalidParameter(format!(
                        "bang-bang band [{}, {}] °C must be finite and non-empty",
                        lower.value(),
                        upper.value()
                    )));
                }
                if !on_current.value().is_finite() || on_current.value() < 0.0 {
                    return Err(OptError::InvalidParameter(format!(
                        "bang-bang on-current must be finite and nonnegative, got {}",
                        on_current.value()
                    )));
                }
                Ok(Box::new(BangBangController::new(upper, lower, on_current)))
            }
            ControllerSpec::Proportional {
                target,
                gain,
                max_current,
            } => {
                if !target.value().is_finite() {
                    return Err(OptError::InvalidParameter(format!(
                        "proportional target must be finite, got {}",
                        target.value()
                    )));
                }
                if !gain.is_finite() || gain <= 0.0 {
                    return Err(OptError::InvalidParameter(format!(
                        "proportional gain must be finite and positive, got {gain}"
                    )));
                }
                if !max_current.value().is_finite() || max_current.value() <= 0.0 {
                    return Err(OptError::InvalidParameter(format!(
                        "proportional current clamp must be finite and positive, got {}",
                        max_current.value()
                    )));
                }
                Ok(Box::new(ProportionalController::new(
                    target,
                    gain,
                    max_current,
                )))
            }
        }
    }

    /// Canonical bit-exact encoding, used in checkpoint and result-cache
    /// fingerprints: the field table below, space-separated.
    pub fn digest(&self) -> String {
        fields(' ', |w| Group(' ').put(w, self))
    }
}

// The controller's codec: its digest here, `tag:fields` on the wire.
crate::field_table!(Group => ControllerSpec {
    "const" => Constant { current: Hex },
    "bang" => BangBang { upper: Hex, lower: Hex, on_current: Hex },
    "prop" => Proportional { target: Hex, gain: Hex, max_current: Hex },
});

/// A failed supervised transient run: the typed error plus the partial
/// trace recorded before the failure. Mirrors
/// [`SweepFailure`](crate::supervise::SweepFailure) for sweeps: nothing
/// already simulated is thrown away.
#[derive(Debug, Clone)]
pub struct TransientFailure {
    /// Why the run stopped.
    pub error: OptError,
    /// Samples recorded before the failure (possibly empty).
    pub partial: TransientTrace,
}

impl TransientFailure {
    /// Steps fully recorded before the failure.
    pub fn completed(&self) -> usize {
        self.partial.samples().len()
    }

    /// Discards the partial trace, keeping the error.
    pub fn into_error(self) -> OptError {
        self.error
    }
}

impl fmt::Display for TransientFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transient run failed after {} recorded steps: {}",
            self.completed(),
            self.error
        )
    }
}

impl std::error::Error for TransientFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<TransientFailure> for OptError {
    fn from(failure: TransientFailure) -> OptError {
        failure.error
    }
}

/// Counters from the solve-site guard: how many implicit solves were
/// issued, and how many commands were refused at the solve boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Steps that reached the implicit solver (all with `i < λ_m`).
    pub solves_issued: u64,
    /// Commands refused at the solve site with `i ≥ λ_m` or non-finite.
    pub refused: u64,
}

/// The guard itself: limit plus counters.
#[derive(Debug, Clone, Copy)]
struct SolveGuard {
    limit: f64,
    stats: GuardStats,
}

/// The transient co-simulator.
#[derive(Debug, Clone)]
pub struct TransientSimulator {
    system: CoolingSystem,
    capacitance: Vec<f64>,
    dt: f64,
    theta: Vec<f64>,
    time: f64,
    /// Factored steppers keyed by the current's bit pattern: controllers
    /// that toggle between a few levels (bang-bang, quantized P-control)
    /// reuse factorizations instead of re-factoring every switch.
    cache: std::collections::HashMap<u64, BackwardEuler>,
    /// `false` switches to the refactor-per-step oracle path, kept only
    /// as an equivalence reference and a benchmark baseline.
    reuse_factorization: bool,
    /// Optional solve-site guard enforcing `i < λ_m` at every step.
    guard: Option<SolveGuard>,
}

impl TransientSimulator {
    /// Creates a simulator starting from a uniform ambient state.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidParameter`] for a nonpositive step.
    pub fn new(system: CoolingSystem, dt: f64) -> Result<TransientSimulator, OptError> {
        if dt <= 0.0 || !dt.is_finite() {
            return Err(OptError::InvalidParameter(format!(
                "time step must be positive and finite, got {dt}"
            )));
        }
        let ambient = system.config().ambient().to_kelvin().value();
        let n = system.stamped().model().node_count();
        let capacitance = system.stamped().model().capacitance_vector();
        Ok(TransientSimulator {
            system,
            capacitance,
            dt,
            theta: vec![ambient; n],
            time: 0.0,
            cache: std::collections::HashMap::new(),
            reuse_factorization: true,
            guard: None,
        })
    }

    /// Seeds the state from a solved steady state instead of ambient.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidParameter`] if the state length does not
    /// match the model's node count or any entry is non-finite.
    pub fn start_from(&mut self, temps: &[Kelvin]) -> Result<(), OptError> {
        if temps.len() != self.theta.len() {
            return Err(OptError::InvalidParameter(format!(
                "state has {} entries, model has {} nodes",
                temps.len(),
                self.theta.len()
            )));
        }
        if let Some(bad) = temps.iter().position(|t| !t.value().is_finite()) {
            return Err(OptError::InvalidParameter(format!(
                "state entry {bad} is not finite"
            )));
        }
        self.theta = temps.iter().map(|t| t.value()).collect();
        Ok(())
    }

    /// Installs a solve-site guard: every subsequent [`step`] with a
    /// current at or beyond `limit` (or non-finite) is refused with a
    /// typed [`OptError::BeyondRunaway`] *before* any factorization or
    /// solve, and counted in [`guard_stats`]. Pass the system's λ_m to
    /// turn Lemma 1's envelope into a hard invariant of the simulator.
    ///
    /// [`step`]: TransientSimulator::step
    /// [`guard_stats`]: TransientSimulator::guard_stats
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidParameter`] for a non-finite or
    /// nonpositive limit.
    pub fn set_guard(&mut self, limit: Amperes) -> Result<(), OptError> {
        if !limit.value().is_finite() || limit.value() <= 0.0 {
            return Err(OptError::InvalidParameter(format!(
                "guard limit must be positive and finite, got {}",
                limit.value()
            )));
        }
        self.guard = Some(SolveGuard {
            limit: limit.value(),
            stats: GuardStats::default(),
        });
        Ok(())
    }

    /// Counters of the installed guard, or `None` if no guard is set.
    /// Counters reflect this process only: steps recovered from a
    /// checkpoint were solved (and counted) by the process that wrote it.
    pub fn guard_stats(&self) -> Option<GuardStats> {
        self.guard.map(|g| g.stats)
    }

    /// Chooses between the factorization-reuse fast path (the default)
    /// and the refactor-per-step oracle used for equivalence testing and
    /// benchmarking. Both paths are bit-identical by construction — the
    /// same matrix is factored on the same pattern either once or every
    /// step.
    pub fn set_factorization_reuse(&mut self, reuse: bool) {
        self.reuse_factorization = reuse;
        if !reuse {
            self.cache.clear();
        }
    }

    /// Elapsed simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current peak silicon temperature of the simulator state.
    pub fn peak(&self) -> Celsius {
        let model = self.system.stamped().model();
        model
            .silicon_nodes()
            .iter()
            .map(|id| Kelvin(self.theta[id.index()]).to_celsius())
            .fold(Celsius(f64::NEG_INFINITY), Celsius::max)
    }

    /// The simulated cooling system.
    pub fn system(&self) -> &CoolingSystem {
        &self.system
    }

    /// Advances one step at the given tile powers and supply current.
    ///
    /// # Errors
    ///
    /// Propagates power-vector and factorization errors. A current beyond
    /// the runaway limit is *allowed* here — the transient response simply
    /// grows until the controller (or the caller) backs off, which is the
    /// physical runaway scenario — unless it is so large that even
    /// `C/Δt + G − i·D` turns indefinite.
    pub fn step(
        &mut self,
        tile_powers: &[Watts],
        current: Amperes,
    ) -> Result<TransientSample, OptError> {
        let expected = self.system.stamped().model().silicon_nodes().len();
        if tile_powers.len() != expected {
            return Err(OptError::Thermal(ThermalError::PowerLengthMismatch {
                expected,
                actual: tile_powers.len(),
            }));
        }
        if let Some(guard) = self.guard.as_mut() {
            if !current.value().is_finite() || current.value() >= guard.limit {
                guard.stats.refused += 1;
                return Err(OptError::BeyondRunaway {
                    current: current.value(),
                });
            }
        }
        let key = current.value().to_bits();
        if self.reuse_factorization && !self.cache.contains_key(&key) {
            // Bound the cache so a continuously-varying controller cannot
            // hold an unbounded number of factorizations.
            if self.cache.len() >= 8 {
                self.cache.clear();
            }
            let stepper = self.stepper(current)?;
            self.cache.insert(key, stepper);
        }
        let p = self.system.stamped().power_vector(tile_powers, current)?;
        let fresh;
        let stepper = if self.reuse_factorization {
            // The branch above guarantees the entry exists for `key`.
            #[allow(clippy::expect_used)]
            {
                self.cache.get(&key).expect("stepper cached above")
            }
        } else {
            fresh = self.stepper(current)?;
            &fresh
        };
        if let Some(guard) = self.guard.as_mut() {
            guard.stats.solves_issued += 1;
        }
        self.theta = stepper
            .step(&self.theta, &p)
            .map_err(|e: ThermalError| OptError::from(e))?;
        self.time += self.dt;
        let temps: Vec<Kelvin> = self.theta.iter().map(|&t| Kelvin(t)).collect();
        let tec_power = self.system.stamped().input_power(&temps, current)?;
        Ok(TransientSample {
            time: self.time,
            peak: self.peak(),
            current,
            tec_power,
        })
    }

    /// The Cholesky patterns of the cached steppers (for the pattern-sharing
    /// tests).
    #[cfg(test)]
    pub(crate) fn cached_patterns(&self) -> Vec<Arc<tecopt_linalg::CholeskyPattern>> {
        self.cache
            .values()
            .map(|stepper| Arc::clone(stepper.pattern()))
            .collect()
    }

    /// Factors the backward-Euler stepper at `current` on the network's
    /// Cholesky pattern (the model's, shared with every steady solver of
    /// the system): `D` and `C/Δt` are diagonal, so `C/Δt + G − i·D` has
    /// the structure of `G` at every current.
    fn stepper(&self, current: Amperes) -> Result<BackwardEuler, OptError> {
        let stamped = self.system.stamped();
        let a = stamped.sparse_system_matrix(current)?;
        let pattern = stamped.model().cholesky_pattern()?;
        BackwardEuler::with_pattern(pattern, &a, &self.capacitance, self.dt).map_err(OptError::from)
    }

    /// Runs for `duration` seconds under a controller, with constant tile
    /// powers, recording every step.
    ///
    /// # Errors
    ///
    /// Propagates stepping errors.
    pub fn run(
        &mut self,
        tile_powers: &[Watts],
        controller: &mut dyn TecController,
        duration: f64,
    ) -> Result<TransientTrace, OptError> {
        let steps = (duration / self.dt).ceil() as usize;
        let mut trace = TransientTrace::default();
        for _ in 0..steps {
            let i = controller.next_current(self.peak());
            let sample = self.step(tile_powers, i)?;
            trace.samples.push(sample);
        }
        Ok(trace)
    }

    /// Runs a piecewise-constant workload schedule `(duration_seconds,
    /// tile_powers)` under a controller.
    ///
    /// # Errors
    ///
    /// Propagates stepping errors.
    pub fn run_schedule(
        &mut self,
        schedule: &[(f64, Vec<Watts>)],
        controller: &mut dyn TecController,
    ) -> Result<TransientTrace, OptError> {
        let mut trace = TransientTrace::default();
        for (duration, powers) in schedule {
            let part = self.run(powers, controller, *duration)?;
            trace.samples.extend(part.samples);
        }
        Ok(trace)
    }

    /// Per-segment step counts and the total, after validating durations.
    fn plan_schedule(
        &self,
        schedule: &[(f64, Vec<Watts>)],
    ) -> Result<(Vec<usize>, usize), OptError> {
        let mut plan = Vec::with_capacity(schedule.len());
        let mut total = 0usize;
        for (seg, (duration, _)) in schedule.iter().enumerate() {
            if !duration.is_finite() || *duration <= 0.0 {
                return Err(OptError::InvalidParameter(format!(
                    "schedule segment {seg} duration must be positive and finite, got {duration}"
                )));
            }
            let steps = (duration / self.dt).ceil() as usize;
            plan.push(steps);
            total += steps;
        }
        Ok((plan, total))
    }

    /// Runs a schedule under a [`RunContext`]: one probe admission per
    /// timestep (cancellation, deadline, and probe budget all gate at step
    /// boundaries), non-finite tile powers refused before they reach the
    /// solver, and controller panics caught at the step they occur. Every
    /// failure carries the partial trace recorded so far.
    ///
    /// Any checkpoint path on `ctx` is ignored here; use
    /// [`run_schedule_checkpointed`](TransientSimulator::run_schedule_checkpointed)
    /// for resumable playback.
    ///
    /// # Errors
    ///
    /// [`TransientFailure`] wrapping the typed [`OptError`]: `Cancelled`
    /// or `DeadlineExceeded` on supervision exhaustion,
    /// [`OptError::NonFinitePower`] for poisoned samples,
    /// [`OptError::ControllerPanicked`] for caught panics, and any
    /// stepping error.
    pub fn run_schedule_supervised(
        &mut self,
        schedule: &[(f64, Vec<Watts>)],
        controller: &mut (dyn TecController + Send),
        ctx: &RunContext,
    ) -> Result<TransientTrace, TransientFailure> {
        let (plan, total) = self
            .plan_schedule(schedule)
            .map_err(|error| TransientFailure {
                error,
                partial: TransientTrace::default(),
            })?;
        self.play(
            schedule,
            &plan,
            total,
            controller,
            ctx,
            TransientTrace::default(),
            None,
        )
    }

    /// [`run_schedule_supervised`](TransientSimulator::run_schedule_supervised)
    /// with versioned checkpoint/resume at timestep boundaries.
    ///
    /// When `ctx` carries a checkpoint path, every completed step is
    /// appended (and flushed) to the checkpoint before it is reported, so
    /// a killed run resumes *bit-identically*: the recorded samples are
    /// decoded from their exact bit patterns, the thermal state `θ` and
    /// clock are restored from the last intact record, and the controller
    /// — which must be passed in its **initial** state — is fast-forwarded
    /// by replaying its decisions over the recorded peak sequence (no
    /// solves are re-issued for recovered steps).
    ///
    /// `params_fingerprint` must bind every input that is not digested
    /// internally — in particular the controller and envelope
    /// configuration (see [`ControllerSpec::digest`]). The simulator
    /// digests its own timestep, node count, starting state, and the full
    /// schedule; a checkpoint whose fingerprint or step total disagrees is
    /// rejected as stale instead of silently resumed.
    ///
    /// # Errors
    ///
    /// As `run_schedule_supervised`, plus
    /// [`OptError::InvalidParameter`] for stale or unreadable checkpoints.
    pub fn run_schedule_checkpointed(
        &mut self,
        schedule: &[(f64, Vec<Watts>)],
        controller: &mut (dyn TecController + Send),
        params_fingerprint: u64,
        ctx: &RunContext,
    ) -> Result<TransientTrace, TransientFailure> {
        let Some(path) = ctx.checkpoint_path().map(Path::to_path_buf) else {
            return self.run_schedule_supervised(schedule, controller, ctx);
        };
        let fail = |error: OptError| TransientFailure {
            error,
            partial: TransientTrace::default(),
        };
        let (plan, total) = self.plan_schedule(schedule).map_err(fail)?;
        let fp = self.playback_fingerprint(schedule, params_fingerprint);
        let header = Header {
            noun: "checkpoint",
            kind: CHECKPOINT_KIND,
            fingerprint: fp,
            total,
        };
        // Step records keyed by index, later duplicates winning (a torn
        // record is re-appended intact after a resume).
        let mut records: Vec<Option<(TransientSample, Vec<f64>)>> = vec![None; total];
        let file = RecordFile::open(&path, &header, |rec| {
            let idx = rec.key.parse::<usize>().ok().filter(|i| *i < total);
            if let (Some(idx), "item") = (idx, rec.tag) {
                if let Some(step) = decode_step(rec.payload, self.theta.len()) {
                    records[idx] = Some(step);
                }
            }
        })
        .map_err(fail)?;

        // The longest intact prefix is the recovered run.
        let samples: Vec<TransientSample> = records
            .iter()
            .map_while(|r| r.as_ref().map(|(sample, _)| *sample))
            .collect();
        // Fast-forward the controller over the recorded peak sequence: the
        // pre-step peak of step j is the post-step peak of j−1 (the
        // simulator's own starting peak for j = 0).
        let mut peak = self.peak();
        for (j, sample) in samples.iter().enumerate() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| controller.next_current(peak))) {
                return Err(TransientFailure {
                    error: OptError::ControllerPanicked {
                        step: j,
                        payload: panic_message(payload),
                    },
                    partial: TransientTrace::from_samples(samples[..j].to_vec()),
                });
            }
            peak = sample.peak;
        }
        // Restore the state and clock after the last recovered step.
        let last = samples.len().checked_sub(1);
        if let Some((sample, theta)) = last.and_then(|i| records.get_mut(i)?.take()) {
            self.time = sample.time;
            self.theta = theta;
        }
        let trace = TransientTrace::from_samples(samples);
        self.play(schedule, &plan, total, controller, ctx, trace, Some(&file))
    }

    /// Digest of everything the simulator itself contributes to a
    /// playback checkpoint's identity.
    fn playback_fingerprint(&self, schedule: &[(f64, Vec<Watts>)], params: u64) -> u64 {
        let mut data = format!(
            "{CHECKPOINT_KIND} params {params:016x} dt {} nodes {} time {} state",
            hex_f64(self.dt),
            self.theta.len(),
            hex_f64(self.time)
        );
        for t in &self.theta {
            data.push(' ');
            data.push_str(&hex_f64(*t));
        }
        for (duration, powers) in schedule {
            data.push_str(&format!(" seg {}", hex_f64(*duration)));
            for p in powers {
                data.push(' ');
                data.push_str(&hex_f64(p.value()));
            }
        }
        fingerprint(&data)
    }

    /// The shared playback loop: `trace` already holds the recovered
    /// prefix (if any) and the simulator state matches its last sample.
    #[allow(clippy::too_many_arguments)]
    fn play(
        &mut self,
        schedule: &[(f64, Vec<Watts>)],
        plan: &[usize],
        total: usize,
        controller: &mut (dyn TecController + Send),
        ctx: &RunContext,
        mut trace: TransientTrace,
        file: Option<&RecordFile>,
    ) -> Result<TransientTrace, TransientFailure> {
        let mut done = trace.samples.len();
        let mut base = 0usize;
        for (seg_steps, (_, powers)) in plan.iter().zip(schedule) {
            let seg_end = base + seg_steps;
            if seg_end <= done {
                // Entirely recovered from the checkpoint.
                base = seg_end;
                continue;
            }
            if let Some(tile) = powers.iter().position(|p| !p.value().is_finite()) {
                return Err(TransientFailure {
                    error: OptError::NonFinitePower { step: done, tile },
                    partial: trace,
                });
            }
            while done < seg_end {
                if !ctx.admit() {
                    let error = exhaustion(ctx, done, total);
                    return Err(TransientFailure {
                        error,
                        partial: trace,
                    });
                }
                let peak = self.peak();
                let applied = match catch_unwind(AssertUnwindSafe(|| controller.next_current(peak)))
                {
                    Ok(amps) => amps,
                    Err(payload) => {
                        return Err(TransientFailure {
                            error: OptError::ControllerPanicked {
                                step: done,
                                payload: panic_message(payload),
                            },
                            partial: trace,
                        });
                    }
                };
                let sample = match self.step(powers, applied) {
                    Ok(sample) => sample,
                    Err(error) => {
                        return Err(TransientFailure {
                            error,
                            partial: trace,
                        });
                    }
                };
                if let Some(file) = file {
                    let payload = encode_step(&sample, &self.theta);
                    if let Err(error) = file.append("item", &done.to_string(), &payload) {
                        return Err(TransientFailure {
                            error,
                            partial: trace,
                        });
                    }
                }
                trace.samples.push(sample);
                done += 1;
            }
            base = seg_end;
        }
        Ok(trace)
    }
}

/// Maps a denied step admission to the matching typed error.
fn exhaustion(ctx: &RunContext, done: usize, total: usize) -> OptError {
    match ctx.ensure_live() {
        Err(OptError::Cancelled { .. }) => OptError::Cancelled { completed: done },
        _ => OptError::DeadlineExceeded {
            completed: done,
            remaining: total.saturating_sub(done),
        },
    }
}

crate::field_table!(Group => TransientSample {
    time: Hex,
    peak: Hex,
    current: Hex,
    tec_power: Hex,
});

/// A step record's payload: the sample fields plus the full post-step
/// state `θ`, all as bit-exact hex.
fn encode_step(sample: &TransientSample, theta: &[f64]) -> String {
    fields(' ', |w| {
        w.put(&Group(' '), sample);
        theta.iter().for_each(|t| {
            w.put(&Hex, t);
        });
    })
}

/// Inverse of [`encode_step`]: exactly the 4 sample fields plus `nodes`
/// state entries, every one a well-formed hex `f64`.
fn decode_step(payload: &str, nodes: usize) -> Option<(TransientSample, Vec<f64>)> {
    let state = List {
        sep: ' ',
        len: nodes..=nodes,
        item: Hex,
    };
    read(payload, ' ', "step record", |r| {
        Ok((r.take(&Group(' '), "sample")?, r.take(&state, "state")?))
    })
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackageConfig, TecParams, TileIndex};

    fn system() -> CoolingSystem {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let mut powers = vec![Watts(0.05); 16];
        powers[5] = Watts(0.6);
        CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1)],
            powers,
        )
        .unwrap()
    }

    fn hot_powers() -> Vec<Watts> {
        let mut p = vec![Watts(0.05); 16];
        p[5] = Watts(0.6);
        p
    }

    #[test]
    fn constant_current_settles_to_steady_state() {
        let sys = system();
        let i = Amperes(3.0);
        let steady = sys.solve(i).unwrap();
        let mut sim = TransientSimulator::new(sys, 0.5).unwrap();
        let mut ctl = ConstantCurrent(i);
        // Long enough for the sink (tens of seconds of thermal mass).
        let trace = sim.run(&hot_powers(), &mut ctl, 2000.0).unwrap();
        let last = trace.samples().last().unwrap();
        assert!(
            (last.peak.value() - steady.peak().value()).abs() < 0.05,
            "transient {last:?} vs steady {:?}",
            steady.peak()
        );
    }

    #[test]
    fn start_from_steady_state_is_stationary() {
        let sys = system();
        let steady = sys.solve(Amperes(2.0)).unwrap();
        let mut sim = TransientSimulator::new(sys, 0.1).unwrap();
        sim.start_from(steady.node_temperatures()).unwrap();
        let before = sim.peak();
        let mut ctl = ConstantCurrent(Amperes(2.0));
        let trace = sim.run(&hot_powers(), &mut ctl, 5.0).unwrap();
        let after = trace.samples().last().unwrap().peak;
        assert!((before.value() - after.value()).abs() < 1e-6);
    }

    #[test]
    fn bang_bang_duty_cycles_and_bounds_the_peak() {
        // The die's local time constant (~ms) is far below the 0.5 s
        // control period, so with a band narrower than the one-step swing
        // the loop duty-cycles at the sampling rate — the correct behaviour
        // of a slow monitor over a fast plant. The controller must still
        // (a) keep switching, (b) never exceed the uncooled level, and
        // (c) hold the *average* peak meaningfully below uncooled.
        let sys = system();
        let uncooled = sys.solve(Amperes(0.0)).unwrap().peak();
        let upper = Celsius(uncooled.value() - 2.0);
        let lower = Celsius(uncooled.value() - 4.0);
        let mut sim = TransientSimulator::new(sys, 0.5).unwrap();
        let mut ctl = BangBangController::new(upper, lower, Amperes(4.0));
        let trace = sim.run(&hot_powers(), &mut ctl, 3000.0).unwrap();
        let tail = &trace.samples()[trace.samples().len() / 2..];
        let max_tail = tail.iter().map(|s| s.peak.value()).fold(f64::MIN, f64::max);
        let mean_tail = tail.iter().map(|s| s.peak.value()).sum::<f64>() / tail.len() as f64;
        assert!(
            max_tail <= uncooled.value() + 0.05,
            "peak exceeded the uncooled level: {max_tail}"
        );
        assert!(
            mean_tail < uncooled.value() - 1.0,
            "duty-cycling achieved no average cooling: {mean_tail}"
        );
        // The controller actually switched at least once each way.
        assert!(tail.iter().any(|s| s.current.value() > 0.0));
        assert!(tail.iter().any(|s| s.current.value() == 0.0));
    }

    #[test]
    fn on_demand_cooling_saves_energy_versus_always_on() {
        // The economic argument of active cooling: the controller only pays
        // for cooling when the monitor demands it.
        let sys = system();
        let uncooled = sys.solve(Amperes(0.0)).unwrap().peak();
        let upper = Celsius(uncooled.value() - 2.0);
        let lower = Celsius(uncooled.value() - 4.0);
        let dt = 0.5;
        let horizon = 2000.0;

        let mut sim_on = TransientSimulator::new(sys.clone(), dt).unwrap();
        let mut always_on = ConstantCurrent(Amperes(4.0));
        let trace_on = sim_on.run(&hot_powers(), &mut always_on, horizon).unwrap();

        let mut sim_bb = TransientSimulator::new(sys, dt).unwrap();
        let mut bb = BangBangController::new(upper, lower, Amperes(4.0));
        let trace_bb = sim_bb.run(&hot_powers(), &mut bb, horizon).unwrap();

        let e_on = trace_on.tec_energy_joules(dt);
        let e_bb = trace_bb.tec_energy_joules(dt);
        assert!(
            e_bb < 0.8 * e_on,
            "bang-bang should save energy: {e_bb} J vs always-on {e_on} J"
        );
        // ... while never exceeding the uncooled level and cooling on
        // average (the sample-rate duty cycling analyzed in
        // `bang_bang_duty_cycles_and_bounds_the_peak`).
        let uncooled_limit = Celsius(uncooled.value() + 0.05);
        assert!(trace_bb.violation_fraction(uncooled_limit) == 0.0);
        let _ = (upper, lower);
    }

    #[test]
    fn proportional_controller_tracks_target() {
        let sys = system();
        let uncooled = sys.solve(Amperes(0.0)).unwrap().peak();
        let target = Celsius(uncooled.value() - 2.0);
        let mut sim = TransientSimulator::new(sys, 0.5).unwrap();
        let mut ctl = ProportionalController::new(target, 0.8, Amperes(8.0));
        let trace = sim.run(&hot_powers(), &mut ctl, 3000.0).unwrap();
        // Proportional control of a lagged plant limit-cycles; judge the
        // tail average, not an arbitrary sample.
        let tail = &trace.samples()[trace.samples().len() / 2..];
        let mean = tail.iter().map(|s| s.peak.value()).sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - target.value()).abs() < 1.5,
            "proportional control averaged {mean}, target {target:?}"
        );
    }

    #[test]
    fn schedule_switches_workloads() {
        let sys = system();
        let idle = vec![Watts(0.02); 16];
        let mut sim = TransientSimulator::new(sys, 0.5).unwrap();
        let mut ctl = ConstantCurrent(Amperes(0.0));
        let trace = sim
            .run_schedule(&[(500.0, hot_powers()), (500.0, idle)], &mut ctl)
            .unwrap();
        let mid = trace.samples()[trace.samples().len() / 2 - 1].peak;
        let end = trace.samples().last().unwrap().peak;
        assert!(
            mid > end,
            "idle phase should cool the die: {mid:?} vs {end:?}"
        );
        assert!((sim.time() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn invalid_step_rejected() {
        assert!(matches!(
            TransientSimulator::new(system(), 0.0),
            Err(OptError::InvalidParameter(_))
        ));
    }

    #[test]
    fn start_from_rejects_mismatched_and_poisoned_slices() {
        let mut sim = TransientSimulator::new(system(), 0.5).unwrap();
        let n = sim.system().stamped().model().node_count();
        assert!(matches!(
            sim.start_from(&vec![Kelvin(300.0); n - 1]),
            Err(OptError::InvalidParameter(_))
        ));
        assert!(matches!(
            sim.start_from(&vec![Kelvin(300.0); n + 3]),
            Err(OptError::InvalidParameter(_))
        ));
        let mut poisoned = vec![Kelvin(300.0); n];
        poisoned[2] = Kelvin(f64::NAN);
        assert!(matches!(
            sim.start_from(&poisoned),
            Err(OptError::InvalidParameter(_))
        ));
        // The rejected calls left the state untouched and usable.
        assert!(sim.start_from(&vec![Kelvin(300.0); n]).is_ok());
        assert!(sim.peak().value().is_finite());
    }

    #[test]
    fn step_rejects_mismatched_power_slices() {
        let mut sim = TransientSimulator::new(system(), 0.5).unwrap();
        for len in [0usize, 15, 17] {
            assert!(matches!(
                sim.step(&vec![Watts(0.05); len], Amperes(1.0)),
                Err(OptError::Thermal(ThermalError::PowerLengthMismatch { .. }))
            ));
        }
    }

    #[test]
    fn refactor_oracle_is_bit_identical_to_factorization_reuse() {
        let mut fast = TransientSimulator::new(system(), 0.5).unwrap();
        let mut oracle = TransientSimulator::new(system(), 0.5).unwrap();
        oracle.set_factorization_reuse(false);
        let mut ctl_a = BangBangController::new(Celsius(80.0), Celsius(76.0), Amperes(4.0));
        let mut ctl_b = ctl_a;
        let ta = fast.run(&hot_powers(), &mut ctl_a, 30.0).unwrap();
        let tb = oracle.run(&hot_powers(), &mut ctl_b, 30.0).unwrap();
        assert_eq!(ta.samples().len(), tb.samples().len());
        for (a, b) in ta.samples().iter().zip(tb.samples()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.peak.value().to_bits(), b.peak.value().to_bits());
            assert_eq!(a.current.value().to_bits(), b.current.value().to_bits());
            assert_eq!(a.tec_power.value().to_bits(), b.tec_power.value().to_bits());
        }
    }

    #[test]
    fn guard_refuses_unsafe_and_non_finite_currents_before_solving() {
        let mut sim = TransientSimulator::new(system(), 0.5).unwrap();
        sim.set_guard(Amperes(5.0)).unwrap();
        for unsafe_amps in [5.0, 7.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                sim.step(&hot_powers(), Amperes(unsafe_amps)),
                Err(OptError::BeyondRunaway { .. })
            ));
        }
        assert!(sim.step(&hot_powers(), Amperes(3.0)).is_ok());
        let stats = sim.guard_stats().unwrap();
        assert_eq!(stats.refused, 4);
        assert_eq!(stats.solves_issued, 1);
        assert!(sim.set_guard(Amperes(f64::NAN)).is_err());
    }

    #[test]
    fn controller_spec_builds_validate_instead_of_panicking() {
        assert!(ControllerSpec::Constant {
            current: Amperes(2.0)
        }
        .build()
        .is_ok());
        for bad in [
            ControllerSpec::Constant {
                current: Amperes(-1.0),
            },
            ControllerSpec::Constant {
                current: Amperes(f64::NAN),
            },
            ControllerSpec::BangBang {
                upper: Celsius(70.0),
                lower: Celsius(75.0),
                on_current: Amperes(2.0),
            },
            ControllerSpec::BangBang {
                upper: Celsius(80.0),
                lower: Celsius(75.0),
                on_current: Amperes(-2.0),
            },
            ControllerSpec::Proportional {
                target: Celsius(70.0),
                gain: 0.0,
                max_current: Amperes(4.0),
            },
            ControllerSpec::Proportional {
                target: Celsius(f64::NAN),
                gain: 1.0,
                max_current: Amperes(4.0),
            },
        ] {
            assert!(
                matches!(bad.build(), Err(OptError::InvalidParameter(_))),
                "{bad:?} should be rejected"
            );
        }
        // Digests are bit-exact and shape-distinct.
        let a = ControllerSpec::Constant {
            current: Amperes(2.0),
        };
        let b = ControllerSpec::Constant {
            current: Amperes(2.0 + 1e-16),
        };
        assert_eq!(a.digest(), a.digest());
        assert_ne!(
            a.digest(),
            ControllerSpec::Proportional {
                target: Celsius(70.0),
                gain: 1.0,
                max_current: Amperes(2.0)
            }
            .digest()
        );
        let _ = b;
    }

    #[test]
    fn supervised_run_matches_unsupervised_bitwise() {
        let schedule = vec![(5.0, hot_powers()), (5.0, vec![Watts(0.02); 16])];
        let mut plain = TransientSimulator::new(system(), 0.5).unwrap();
        let mut ctl_a = ConstantCurrent(Amperes(2.0));
        let reference = plain.run_schedule(&schedule, &mut ctl_a).unwrap();
        let mut supervised = TransientSimulator::new(system(), 0.5).unwrap();
        let mut ctl_b = ConstantCurrent(Amperes(2.0));
        let ctx = RunContext::unbounded();
        let trace = supervised
            .run_schedule_supervised(&schedule, &mut ctl_b, &ctx)
            .unwrap();
        assert_eq!(reference.samples().len(), trace.samples().len());
        for (a, b) in reference.samples().iter().zip(trace.samples()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.peak.value().to_bits(), b.peak.value().to_bits());
        }
    }

    #[test]
    fn supervised_run_rejects_bad_durations_with_empty_partial() {
        let mut sim = TransientSimulator::new(system(), 0.5).unwrap();
        let mut ctl = ConstantCurrent(Amperes(1.0));
        let ctx = RunContext::unbounded();
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let failure = sim
                .run_schedule_supervised(&[(bad, hot_powers())], &mut ctl, &ctx)
                .unwrap_err();
            assert!(matches!(failure.error, OptError::InvalidParameter(_)));
            assert_eq!(failure.completed(), 0);
        }
    }

    #[test]
    fn slew_limited_controller_moves_gradually_and_quantized() {
        let mut ctl = SlewLimited::new(ConstantCurrent(Amperes(5.0)), Amperes(1.0), Amperes(0.5));
        let mut last = 0.0;
        for step in 1..=10 {
            let i = ctl.next_current(Celsius(50.0)).value();
            assert!(i - last <= 1.0 + 1e-12, "step {step} slewed too fast");
            assert!(
                (i / 0.5 - (i / 0.5).round()).abs() < 1e-9,
                "not on grid: {i}"
            );
            last = i;
        }
        assert!((last - 5.0).abs() < 1e-9, "should reach the target: {last}");
        assert_eq!(ctl.inner().0, Amperes(5.0));
    }

    #[test]
    fn slew_limited_proportional_holds_the_limit_without_chatter() {
        let sys = system();
        let uncooled = sys.solve(Amperes(0.0)).unwrap().peak();
        let target = Celsius(uncooled.value() - 2.0);
        let mut sim = TransientSimulator::new(sys, 0.5).unwrap();
        let mut ctl = SlewLimited::new(
            ProportionalController::new(target, 1.0, Amperes(8.0)),
            Amperes(0.25),
            Amperes(0.25),
        );
        let trace = sim.run(&hot_powers(), &mut ctl, 3000.0).unwrap();
        let tail = &trace.samples()[trace.samples().len() / 2..];
        let max_tail = tail.iter().map(|s| s.peak.value()).fold(f64::MIN, f64::max);
        let min_tail = tail.iter().map(|s| s.peak.value()).fold(f64::MAX, f64::min);
        // With the current slew-limited, the loop holds a narrow band
        // around the target instead of chattering across several degrees.
        assert!(
            max_tail - min_tail < 1.5,
            "tail band [{min_tail}, {max_tail}] too wide"
        );
        assert!(
            (0.5 * (max_tail + min_tail) - target.value()).abs() < 1.5,
            "band center off target: [{min_tail}, {max_tail}] vs {target:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn step_records_round_trip_bit_exactly(
            bits in proptest::collection::vec(0u64..=u64::MAX, 4..40),
        ) {
            let f = |i: usize| f64::from_bits(bits[i]);
            let sample = TransientSample {
                time: f(0),
                peak: Celsius(f(1)),
                current: Amperes(f(2)),
                tec_power: Watts(f(3)),
            };
            let theta: Vec<f64> = (4..bits.len()).map(f).collect();
            let payload = encode_step(&sample, &theta);
            let (back, back_theta) = decode_step(&payload, theta.len()).unwrap();
            let sample_bits = |s: &TransientSample| {
                [s.time, s.peak.value(), s.current.value(), s.tec_power.value()].map(f64::to_bits)
            };
            assert_eq!(sample_bits(&back), sample_bits(&sample));
            let theta_bits: Vec<u64> = back_theta.iter().map(|t| t.to_bits()).collect();
            assert_eq!(theta_bits, bits[4..]);
            // A record of another network size is not a step of this one.
            assert!(decode_step(&payload, theta.len() + 1).is_none());
            assert!(decode_step(&payload[..payload.len() - 1], theta.len()).is_none());
        }
    }
}
