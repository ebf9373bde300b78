//! Typed physical quantities for the `tecopt` workspace.
//!
//! Every quantity is a transparent newtype over `f64` (SI units unless the
//! name says otherwise). The newtypes exist so that public APIs cannot mix up
//! a temperature with a power or a current with a conductance; numeric kernels
//! unwrap to raw `f64` via [`value`](Kelvin::value) at their boundary.
//!
//! Only physically meaningful arithmetic is implemented. For example a
//! [`Kelvin`] difference yields a temperature again (steady-state analysis
//! works with rises above an arbitrary reference), [`Watts`] divided by
//! [`Kelvin`] yields [`WattsPerKelvin`], and [`Amperes`] squared times
//! [`Ohms`] yields [`Watts`].
//!
//! ```
//! use tecopt_units::{Amperes, Celsius, Kelvin, Ohms, Watts};
//!
//! let ambient = Celsius(45.0).to_kelvin();
//! assert!((ambient.value() - 318.15).abs() < 1e-12);
//!
//! let joule: Watts = Amperes(6.0) * Amperes(6.0) * Ohms(3.0e-4);
//! assert!((joule.value() - 0.0108).abs() < 1e-15);
//!
//! let hotter = Kelvin(360.0);
//! assert!(hotter.to_celsius() > Celsius(85.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

pub mod validate;

pub use validate::ValidationError;

/// Offset between the Kelvin and Celsius scales.
pub const CELSIUS_OFFSET: f64 = 273.15;

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw `f64` value in the quantity's base unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Returns `true` if the value is finite (neither NaN nor ±∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match f.precision() {
                    Some(p) => write!(f, "{:.*} {}", p, self.0, $unit),
                    None => write!(f, "{} {}", self.0, $unit),
                }
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(v: f64) -> $name {
                $name(v)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);
quantity!(
    /// Temperature on the Celsius scale.
    Celsius,
    "°C"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Electrical current in amperes.
    Amperes,
    "A"
);
quantity!(
    /// Electrical resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Electrical potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Thermal conductance in watts per kelvin.
    WattsPerKelvin,
    "W/K"
);
quantity!(
    /// Thermal resistance in kelvin per watt.
    KelvinPerWatt,
    "K/W"
);
quantity!(
    /// Length in meters.
    Meters,
    "m"
);
quantity!(
    /// Area in square meters.
    SquareMeters,
    "m²"
);
quantity!(
    /// Thermal conductivity in watts per meter-kelvin.
    WattsPerMeterKelvin,
    "W/(m·K)"
);
quantity!(
    /// Seebeck coefficient in volts per kelvin.
    VoltsPerKelvin,
    "V/K"
);
quantity!(
    /// Heat-flux / power density in watts per square centimeter
    /// (the unit the paper reports power densities in).
    WattsPerSquareCentimeter,
    "W/cm²"
);

impl Kelvin {
    /// Converts to the Celsius scale.
    ///
    /// ```
    /// use tecopt_units::{Celsius, Kelvin};
    /// assert_eq!(Kelvin(373.15).to_celsius(), Celsius(100.0));
    /// ```
    #[inline]
    pub fn to_celsius(self) -> Celsius {
        Celsius(self.0 - CELSIUS_OFFSET)
    }
}

impl Celsius {
    /// Converts to the Kelvin scale.
    ///
    /// ```
    /// use tecopt_units::{Celsius, Kelvin};
    /// assert_eq!(Celsius(0.0).to_kelvin(), Kelvin(273.15));
    /// ```
    #[inline]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin(self.0 + CELSIUS_OFFSET)
    }
}

impl From<Celsius> for Kelvin {
    #[inline]
    fn from(c: Celsius) -> Kelvin {
        c.to_kelvin()
    }
}

impl From<Kelvin> for Celsius {
    #[inline]
    fn from(k: Kelvin) -> Celsius {
        k.to_celsius()
    }
}

impl Meters {
    /// Constructs a length from millimeters.
    ///
    /// ```
    /// use tecopt_units::Meters;
    /// assert_eq!(Meters::from_millimeters(6.0).value(), 0.006);
    /// ```
    #[inline]
    pub fn from_millimeters(mm: f64) -> Meters {
        Meters(mm * 1e-3)
    }

    /// Constructs a length from micrometers.
    #[inline]
    pub fn from_micrometers(um: f64) -> Meters {
        Meters(um * 1e-6)
    }

    /// This length expressed in millimeters.
    #[inline]
    pub fn to_millimeters(self) -> f64 {
        self.0 * 1e3
    }
}

impl Mul<Meters> for Meters {
    type Output = SquareMeters;
    #[inline]
    fn mul(self, rhs: Meters) -> SquareMeters {
        SquareMeters(self.0 * rhs.0)
    }
}

impl SquareMeters {
    /// This area expressed in square centimeters.
    #[inline]
    pub fn to_square_centimeters(self) -> f64 {
        self.0 * 1e4
    }
}

impl WattsPerSquareCentimeter {
    /// Power density of `power` spread uniformly over `area`.
    ///
    /// ```
    /// use tecopt_units::{SquareMeters, Watts, WattsPerSquareCentimeter};
    /// let d = WattsPerSquareCentimeter::from_power_over(Watts(0.5), SquareMeters(0.25e-6));
    /// assert!((d.value() - 200.0).abs() < 1e-9);
    /// ```
    #[inline]
    pub fn from_power_over(power: Watts, area: SquareMeters) -> WattsPerSquareCentimeter {
        WattsPerSquareCentimeter(power.0 / area.to_square_centimeters())
    }

    /// Total power over `area` at this density.
    #[inline]
    pub fn power_over(self, area: SquareMeters) -> Watts {
        Watts(self.0 * area.to_square_centimeters())
    }
}

impl Mul<Kelvin> for WattsPerKelvin {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Kelvin) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Amperes> for Amperes {
    /// `i · i` — appears as `r·i²` in the Joule term; yields amps² which we
    /// immediately scale by a resistance, so the intermediate is represented
    /// as an `AmperesSquared`.
    type Output = AmperesSquared;
    #[inline]
    fn mul(self, rhs: Amperes) -> AmperesSquared {
        AmperesSquared(self.0 * rhs.0)
    }
}

/// Square of an electrical current, an intermediate in Joule-heating terms.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct AmperesSquared(pub f64);

impl AmperesSquared {
    /// Returns the raw value in A².
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Mul<Ohms> for AmperesSquared {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Ohms) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Amperes> for VoltsPerKelvin {
    /// Seebeck coefficient times current: the Peltier "conductance" `α·i`
    /// that couples heat flow to absolute temperature (units W/K).
    type Output = WattsPerKelvin;
    #[inline]
    fn mul(self, rhs: Amperes) -> WattsPerKelvin {
        WattsPerKelvin(self.0 * rhs.0)
    }
}

impl KelvinPerWatt {
    /// The reciprocal conductance.
    ///
    /// # Panics
    ///
    /// Panics if the resistance is zero.
    #[inline]
    pub fn to_conductance(self) -> WattsPerKelvin {
        assert!(self.0 != 0.0, "zero thermal resistance has no conductance");
        WattsPerKelvin(1.0 / self.0)
    }
}

impl WattsPerKelvin {
    /// The reciprocal resistance.
    ///
    /// # Panics
    ///
    /// Panics if the conductance is zero.
    #[inline]
    pub fn to_resistance(self) -> KelvinPerWatt {
        assert!(self.0 != 0.0, "zero thermal conductance has no resistance");
        KelvinPerWatt(1.0 / self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let c = Celsius(85.0);
        assert!((c.to_kelvin().to_celsius().value() - 85.0).abs() < 1e-12);
        let k = Kelvin(318.15);
        assert!((k.to_celsius().to_kelvin().value() - 318.15).abs() < 1e-12);
    }

    #[test]
    fn conversion_traits_match_methods() {
        let k: Kelvin = Celsius(20.0).into();
        assert_eq!(k, Celsius(20.0).to_kelvin());
        let c: Celsius = Kelvin(300.0).into();
        assert_eq!(c, Kelvin(300.0).to_celsius());
    }

    #[test]
    fn joule_heating_units() {
        let p = Amperes(2.0) * Amperes(2.0) * Ohms(0.5);
        assert_eq!(p, Watts(2.0));
    }

    #[test]
    fn peltier_conductance_units() {
        let g = VoltsPerKelvin(6.0e-4) * Amperes(10.0);
        assert!((g.value() - 6.0e-3).abs() < 1e-15);
        let q = g * Kelvin(350.0);
        assert!((q.value() - 2.1).abs() < 1e-12);
    }

    #[test]
    fn resistance_conductance_reciprocal() {
        let r = KelvinPerWatt(0.1);
        assert!((r.to_conductance().value() - 10.0).abs() < 1e-12);
        assert!((r.to_conductance().to_resistance().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero thermal resistance")]
    fn zero_resistance_panics() {
        let _ = KelvinPerWatt(0.0).to_conductance();
    }

    #[test]
    fn length_constructors() {
        assert!((Meters::from_millimeters(0.5).value() - 5e-4).abs() < 1e-18);
        assert!((Meters::from_micrometers(8.0).value() - 8e-6).abs() < 1e-18);
        assert!((Meters(0.006).to_millimeters() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn area_and_density() {
        let tile = Meters::from_millimeters(0.5);
        let area = tile * tile;
        assert!((area.to_square_centimeters() - 0.0025).abs() < 1e-15);
        let d = WattsPerSquareCentimeter::from_power_over(Watts(0.706), area);
        assert!((d.value() - 282.4).abs() < 1e-9);
        assert!((d.power_over(area).value() - 0.706).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit_and_precision() {
        assert_eq!(format!("{:.1}", Celsius(91.84)), "91.8 °C");
        assert_eq!(format!("{:.2}", Watts(1.306)), "1.31 W");
        assert_eq!(format!("{}", Amperes(6.0)), "6 A");
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Watts(1.0) + Watts(2.0);
        assert_eq!(a, Watts(3.0));
        assert_eq!(a - Watts(0.5), Watts(2.5));
        assert_eq!(-a, Watts(-3.0));
        assert_eq!(a * 2.0, Watts(6.0));
        assert_eq!(2.0 * a, Watts(6.0));
        assert_eq!(a / 2.0, Watts(1.5));
        assert!((a / Watts(1.5) - 2.0).abs() < 1e-15);
        assert!(Watts(2.0) > Watts(1.0));
        assert_eq!(Watts(2.0).max(Watts(1.0)), Watts(2.0));
        assert_eq!(Watts(2.0).min(Watts(1.0)), Watts(1.0));
        let total: Watts = [Watts(1.0), Watts(2.5)].into_iter().sum();
        assert_eq!(total, Watts(3.5));
    }

    #[test]
    fn accumulating_assign_ops() {
        let mut w = Watts(1.0);
        w += Watts(0.5);
        w -= Watts(0.25);
        assert_eq!(w, Watts(1.25));
    }

    #[test]
    fn abs_finite_zero() {
        assert_eq!(Watts(-2.0).abs(), Watts(2.0));
        assert!(Watts(1.0).is_finite());
        assert!(!Watts(f64::INFINITY).is_finite());
        assert_eq!(Watts::ZERO, Watts(0.0));
    }
}
