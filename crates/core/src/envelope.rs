//! The transient safety envelope: Lemma 1's `i < λ_m` bound enforced at
//! every control step, not just at the converged setpoint.
//!
//! The steady-state optimizer can afford to *reject* an operating point at
//! or beyond the runaway limit, because nothing has happened yet. A
//! transient controller cannot: by the time a buggy policy commands an
//! unsafe current the die is already hot, and propagating the command
//! would hand the solver a system matrix that is no longer positive
//! definite. [`SafetyEnvelope`] therefore sits between every controller
//! and the simulator. It clamps each commanded current to a configurable
//! margin below λ_m, latches a typed [`EnvelopeEvent`] for every
//! violation, and — after `trip_after` *consecutive* violations — trips to
//! a safe fallback current. A tripped envelope stays tripped until the
//! controller produces `recovery_steps` consecutive clean commands
//! (hysteresis), so a policy that oscillates in and out of the unsafe
//! region cannot chatter the trip latch.
//!
//! [`EnvelopedController`] packages the envelope as a
//! [`crate::transient::TecController`] decorator, so any
//! existing policy gains the guarantee without modification:
//!
//! ```
//! use tecopt::transient::{ConstantCurrent, TecController};
//! use tecopt::{EnvelopeSettings, EnvelopedController, SafetyEnvelope};
//! use tecopt_units::{Amperes, Celsius};
//!
//! # fn main() -> Result<(), tecopt::OptError> {
//! // A controller that commands far beyond a (made-up) λ_m of 10 A.
//! let envelope = SafetyEnvelope::new(Amperes(10.0), EnvelopeSettings::default())?;
//! let mut ctl = EnvelopedController::new(ConstantCurrent(Amperes(50.0)), envelope);
//! let applied = ctl.next_current(Celsius(80.0));
//! assert!(applied.value() < 10.0);
//! assert_eq!(ctl.envelope().violations_total(), 1);
//! # Ok(())
//! # }
//! ```

use crate::transient::TecController;
use crate::OptError;
use tecopt_units::{Amperes, Celsius};

/// Violation events retained verbatim in the envelope's log. A hostile
/// controller violating on every step of a long trace would otherwise
/// grow the log without bound; beyond this cap only the total count
/// advances.
pub const MAX_ENVELOPE_EVENTS: usize = 1024;

/// Tuning of a [`SafetyEnvelope`].
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeSettings {
    /// Fraction of λ_m used as the clamp ceiling; must lie in `(0, 1)`
    /// so the ceiling is strictly below the runaway limit.
    pub margin: f64,
    /// Consecutive violations that latch the trip; must be ≥ 1.
    pub trip_after: usize,
    /// Current applied while tripped (and for non-finite commands); must
    /// be finite and within `[0, margin·λ_m]`.
    pub fallback: Amperes,
    /// Consecutive clean commands required to release a trip; must be ≥ 1.
    pub recovery_steps: usize,
}

impl Default for EnvelopeSettings {
    fn default() -> EnvelopeSettings {
        EnvelopeSettings {
            margin: 0.9,
            trip_after: 3,
            fallback: Amperes(0.0),
            recovery_steps: 8,
        }
    }
}

/// Why one commanded current violated the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The command was NaN or infinite; no meaningful clamp exists, so
    /// the fallback current is applied.
    NonFinite,
    /// The command was negative (a TEC driven in reverse heats the die);
    /// clamped to zero.
    Negative,
    /// The command was at or above the margin ceiling; clamped to it.
    AboveCeiling,
}

/// One latched envelope violation: what was commanded, what was applied
/// instead, and the trip state after the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeEvent {
    /// Zero-based control step at which the violation occurred.
    pub step: usize,
    /// The current the controller asked for.
    pub commanded: Amperes,
    /// The current the envelope actually let through.
    pub applied: Amperes,
    /// Classification of the violation.
    pub kind: ViolationKind,
    /// Whether the envelope was tripped after processing this command.
    pub tripped: bool,
}

/// The clamp-and-trip state machine guarding one transient run.
///
/// State transitions (see `DESIGN.md` §14):
///
/// - **Armed** — clean commands pass through bitwise; a violation is
///   clamped and counted. `trip_after` *consecutive* violations move to
///   **Tripped**.
/// - **Tripped** — every command is replaced by the fallback current.
///   Clean commands are counted; `recovery_steps` consecutive clean
///   commands re-arm the envelope (and the command that completes the
///   streak passes through). Any violation resets the streak.
#[derive(Debug, Clone)]
pub struct SafetyEnvelope {
    lambda: f64,
    ceiling: f64,
    trip_after: usize,
    fallback: f64,
    recovery_steps: usize,
    events: Vec<EnvelopeEvent>,
    violations_total: usize,
    consecutive: usize,
    clean_streak: usize,
    tripped: bool,
    trips: usize,
    step: usize,
}

impl SafetyEnvelope {
    /// Creates an envelope for a system whose runaway limit is `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidParameter`] for a non-finite or
    /// nonpositive `lambda`, a margin outside `(0, 1)`, a zero
    /// `trip_after` or `recovery_steps`, or a fallback current outside
    /// `[0, margin·λ_m]`.
    pub fn new(lambda: Amperes, settings: EnvelopeSettings) -> Result<SafetyEnvelope, OptError> {
        let lm = lambda.value();
        if !lm.is_finite() || lm <= 0.0 {
            return Err(OptError::InvalidParameter(format!(
                "envelope runaway limit must be positive and finite, got {lm}"
            )));
        }
        if !(settings.margin > 0.0 && settings.margin < 1.0) {
            return Err(OptError::InvalidParameter(format!(
                "envelope margin must lie in (0, 1), got {}",
                settings.margin
            )));
        }
        if settings.trip_after == 0 {
            return Err(OptError::InvalidParameter(
                "envelope trip_after must be at least 1".into(),
            ));
        }
        if settings.recovery_steps == 0 {
            return Err(OptError::InvalidParameter(
                "envelope recovery_steps must be at least 1".into(),
            ));
        }
        let ceiling = settings.margin * lm;
        let fb = settings.fallback.value();
        if !fb.is_finite() || fb < 0.0 || fb > ceiling {
            return Err(OptError::InvalidParameter(format!(
                "envelope fallback {fb} A must lie in [0, {ceiling}] A"
            )));
        }
        Ok(SafetyEnvelope {
            lambda: lm,
            ceiling,
            trip_after: settings.trip_after,
            fallback: fb,
            recovery_steps: settings.recovery_steps,
            events: Vec::new(),
            violations_total: 0,
            consecutive: 0,
            clean_streak: 0,
            tripped: false,
            trips: 0,
            step: 0,
        })
    }

    /// The λ_m this envelope was built against.
    pub fn lambda(&self) -> Amperes {
        Amperes(self.lambda)
    }

    /// The clamp ceiling `margin·λ_m`; every applied current satisfies
    /// `i ≤ ceiling < λ_m`.
    pub fn ceiling(&self) -> Amperes {
        Amperes(self.ceiling)
    }

    /// Whether the trip latch is currently engaged.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// How many times the trip latch has engaged over the envelope's life.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// The retained violation events (capped at [`MAX_ENVELOPE_EVENTS`]).
    pub fn violations(&self) -> &[EnvelopeEvent] {
        &self.events
    }

    /// Total violations observed, including any beyond the retention cap.
    pub fn violations_total(&self) -> usize {
        self.violations_total
    }

    /// Commands processed so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Passes one commanded current through the envelope, returning the
    /// current that is safe to apply. This is the single choke point the
    /// `unclamped-current` lint rule enforces: every commanded-current
    /// assignment in the transient runtime must route through here.
    pub fn clamp_command(&mut self, commanded: Amperes) -> Amperes {
        let step = self.step;
        self.step += 1;
        let raw = commanded.value();
        let kind = if !raw.is_finite() {
            Some(ViolationKind::NonFinite)
        } else if raw < 0.0 {
            Some(ViolationKind::Negative)
        } else if raw > self.ceiling {
            Some(ViolationKind::AboveCeiling)
        } else {
            None
        };
        match kind {
            Some(kind) => {
                self.consecutive += 1;
                self.clean_streak = 0;
                if !self.tripped && self.consecutive >= self.trip_after {
                    self.tripped = true;
                    self.trips += 1;
                }
                let applied = if self.tripped {
                    self.fallback
                } else {
                    match kind {
                        ViolationKind::NonFinite => self.fallback,
                        ViolationKind::Negative => 0.0,
                        ViolationKind::AboveCeiling => self.ceiling,
                    }
                };
                self.violations_total += 1;
                if self.events.len() < MAX_ENVELOPE_EVENTS {
                    self.events.push(EnvelopeEvent {
                        step,
                        commanded,
                        applied: Amperes(applied),
                        kind,
                        tripped: self.tripped,
                    });
                }
                Amperes(applied)
            }
            None => {
                self.consecutive = 0;
                if self.tripped {
                    self.clean_streak += 1;
                    if self.clean_streak >= self.recovery_steps {
                        self.tripped = false;
                        self.clean_streak = 0;
                        commanded
                    } else {
                        Amperes(self.fallback)
                    }
                } else {
                    commanded
                }
            }
        }
    }
}

/// Wraps any controller so its commands pass through a [`SafetyEnvelope`]
/// before reaching the simulator.
#[derive(Debug, Clone)]
pub struct EnvelopedController<C> {
    inner: C,
    envelope: SafetyEnvelope,
}

impl<C: TecController> EnvelopedController<C> {
    /// Decorates `inner` with `envelope`.
    pub fn new(inner: C, envelope: SafetyEnvelope) -> EnvelopedController<C> {
        EnvelopedController { inner, envelope }
    }

    /// The envelope's state (violation log, trip latch, counters).
    pub fn envelope(&self) -> &SafetyEnvelope {
        &self.envelope
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: TecController> TecController for EnvelopedController<C> {
    fn next_current(&mut self, peak: Celsius) -> Amperes {
        self.envelope.clamp_command(self.inner.next_current(peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::ConstantCurrent;

    fn envelope() -> SafetyEnvelope {
        SafetyEnvelope::new(Amperes(10.0), EnvelopeSettings::default()).unwrap()
    }

    #[test]
    fn clean_commands_pass_through_bitwise() {
        let mut env = envelope();
        for raw in [0.0, 1.5, 8.999_999, 9.0] {
            let out = env.clamp_command(Amperes(raw));
            assert_eq!(out.value().to_bits(), raw.to_bits());
        }
        assert_eq!(env.violations_total(), 0);
        assert!(!env.is_tripped());
        assert_eq!(env.steps(), 4);
    }

    #[test]
    fn overcurrent_is_clamped_to_the_ceiling() {
        let mut env = envelope();
        let out = env.clamp_command(Amperes(50.0));
        assert_eq!(out, Amperes(9.0));
        assert_eq!(env.violations_total(), 1);
        let ev = env.violations()[0];
        assert_eq!(ev.kind, ViolationKind::AboveCeiling);
        assert_eq!(ev.commanded, Amperes(50.0));
        assert_eq!(ev.applied, Amperes(9.0));
        assert!(!ev.tripped);
    }

    #[test]
    fn negative_and_non_finite_commands_are_neutralized() {
        let mut env = envelope();
        assert_eq!(env.clamp_command(Amperes(-3.0)), Amperes(0.0));
        assert_eq!(env.violations()[0].kind, ViolationKind::Negative);
        let mut env = envelope();
        assert_eq!(env.clamp_command(Amperes(f64::NAN)), Amperes(0.0));
        assert_eq!(env.violations()[0].kind, ViolationKind::NonFinite);
        let mut env = envelope();
        assert_eq!(env.clamp_command(Amperes(f64::INFINITY)), Amperes(0.0));
        assert_eq!(env.violations()[0].kind, ViolationKind::NonFinite);
    }

    #[test]
    fn trip_latches_after_consecutive_violations_only() {
        let settings = EnvelopeSettings {
            trip_after: 3,
            ..EnvelopeSettings::default()
        };
        let mut env = SafetyEnvelope::new(Amperes(10.0), settings).unwrap();
        // Two violations, a clean command, two more violations: the clean
        // command resets the consecutive count, so no trip.
        for _ in 0..2 {
            env.clamp_command(Amperes(99.0));
        }
        env.clamp_command(Amperes(1.0));
        for _ in 0..2 {
            env.clamp_command(Amperes(99.0));
        }
        assert!(!env.is_tripped());
        // One more consecutive violation trips.
        env.clamp_command(Amperes(99.0));
        assert!(env.is_tripped());
        assert_eq!(env.trips(), 1);
        // While tripped, even a clean command yields the fallback.
        assert_eq!(env.clamp_command(Amperes(1.0)), Amperes(0.0));
    }

    #[test]
    fn hysteresis_requires_a_clean_streak_to_recover() {
        let settings = EnvelopeSettings {
            trip_after: 1,
            recovery_steps: 3,
            fallback: Amperes(0.5),
            ..EnvelopeSettings::default()
        };
        let mut env = SafetyEnvelope::new(Amperes(10.0), settings).unwrap();
        env.clamp_command(Amperes(99.0));
        assert!(env.is_tripped());
        // Two clean commands, then a violation: streak resets, still tripped.
        assert_eq!(env.clamp_command(Amperes(1.0)), Amperes(0.5));
        assert_eq!(env.clamp_command(Amperes(1.0)), Amperes(0.5));
        env.clamp_command(Amperes(99.0));
        assert!(env.is_tripped());
        // Three consecutive clean commands release the latch; the third
        // passes through.
        assert_eq!(env.clamp_command(Amperes(1.0)), Amperes(0.5));
        assert_eq!(env.clamp_command(Amperes(1.0)), Amperes(0.5));
        assert_eq!(env.clamp_command(Amperes(2.0)), Amperes(2.0));
        assert!(!env.is_tripped());
        // A later violation can trip it again.
        env.clamp_command(Amperes(99.0));
        assert!(env.is_tripped());
        assert_eq!(env.trips(), 2);
    }

    #[test]
    fn event_log_is_capped_but_the_total_keeps_counting() {
        let settings = EnvelopeSettings {
            trip_after: 1,
            ..EnvelopeSettings::default()
        };
        let mut env = SafetyEnvelope::new(Amperes(10.0), settings).unwrap();
        for _ in 0..(MAX_ENVELOPE_EVENTS + 100) {
            env.clamp_command(Amperes(99.0));
        }
        assert_eq!(env.violations().len(), MAX_ENVELOPE_EVENTS);
        assert_eq!(env.violations_total(), MAX_ENVELOPE_EVENTS + 100);
    }

    #[test]
    fn settings_are_validated() {
        let bad = |lambda: f64, s: EnvelopeSettings| {
            assert!(matches!(
                SafetyEnvelope::new(Amperes(lambda), s),
                Err(OptError::InvalidParameter(_))
            ));
        };
        bad(0.0, EnvelopeSettings::default());
        bad(f64::NAN, EnvelopeSettings::default());
        bad(
            10.0,
            EnvelopeSettings {
                margin: 1.0,
                ..EnvelopeSettings::default()
            },
        );
        bad(
            10.0,
            EnvelopeSettings {
                margin: 0.0,
                ..EnvelopeSettings::default()
            },
        );
        bad(
            10.0,
            EnvelopeSettings {
                trip_after: 0,
                ..EnvelopeSettings::default()
            },
        );
        bad(
            10.0,
            EnvelopeSettings {
                recovery_steps: 0,
                ..EnvelopeSettings::default()
            },
        );
        bad(
            10.0,
            EnvelopeSettings {
                fallback: Amperes(9.5),
                ..EnvelopeSettings::default()
            },
        );
        bad(
            10.0,
            EnvelopeSettings {
                fallback: Amperes(f64::NAN),
                ..EnvelopeSettings::default()
            },
        );
    }

    #[test]
    fn enveloped_controller_clamps_and_records() {
        let env = envelope();
        let mut ctl = EnvelopedController::new(ConstantCurrent(Amperes(25.0)), env);
        let applied = ctl.next_current(Celsius(70.0));
        assert_eq!(applied, Amperes(9.0));
        assert_eq!(ctl.envelope().violations_total(), 1);
        assert_eq!(ctl.inner().0, Amperes(25.0));
    }
}
