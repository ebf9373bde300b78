use crate::DeviceError;
use tecopt_thermal::TwoPortSpec;
use tecopt_units::{Amperes, Kelvin, Meters, Ohms, SquareMeters, VoltsPerKelvin, WattsPerKelvin};

/// Lumped physical parameters of one thin-film TEC device.
///
/// The device model follows Sec. III.A of the paper: a Seebeck coefficient
/// `α`, an electrical resistance `r` and a thermal conductance `κ` fully
/// characterize the active behaviour (Eqs. 1–3); two contact conductances
/// `g_c`, `g_h` couple the cold/hot faces into the package (Fig. 4). The
/// paper notes these contact legs "end up playing an important role in the
/// thermal runaway problem".
///
/// ```
/// use tecopt_device::TecParams;
///
/// let tec = TecParams::superlattice_thin_film();
/// // Physically plausible figure of merit for a Bi2Te3 superlattice.
/// let zt = tec.figure_of_merit_zt(tecopt_units::Kelvin(350.0));
/// assert!(zt > 0.3 && zt < 3.6, "ZT = {zt}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TecParams {
    seebeck: VoltsPerKelvin,
    resistance: Ohms,
    conductance: WattsPerKelvin,
    cold_contact: WattsPerKelvin,
    hot_contact: WattsPerKelvin,
    side: Meters,
}

impl TecParams {
    /// Creates a parameter set after validating positivity.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if any value is nonpositive
    /// or non-finite.
    pub fn new(
        seebeck: VoltsPerKelvin,
        resistance: Ohms,
        conductance: WattsPerKelvin,
        cold_contact: WattsPerKelvin,
        hot_contact: WattsPerKelvin,
        side: Meters,
    ) -> Result<TecParams, DeviceError> {
        let checks: [(f64, &str); 6] = [
            (seebeck.value(), "seebeck coefficient"),
            (resistance.value(), "electrical resistance"),
            (conductance.value(), "thermal conductance"),
            (cold_contact.value(), "cold contact conductance"),
            (hot_contact.value(), "hot contact conductance"),
            (side.value(), "lateral side"),
        ];
        for (v, what) in checks {
            tecopt_units::validate::positive(what, v)?;
        }
        Ok(TecParams {
            seebeck,
            resistance,
            conductance,
            cold_contact,
            hot_contact,
            side,
        })
    }

    /// The super-lattice thin-film device the paper's experiments use
    /// (after Chowdhury et al., Nature Nanotechnology 2009).
    ///
    /// Derivation of the lumped values (documented per `DESIGN.md` §2 and
    /// `EXPERIMENTS.md`): 0.5 mm × 0.5 mm lateral footprint (a 7×7 array
    /// measures ~3.5 mm × 3.5 mm); ~8 µm Bi₂Te₃/Sb₂Te₃ superlattice with
    /// film conductivity ~1.2 W/(m·K) giving `κ = k·A/t ≈ 0.0375 W/K`;
    /// module Seebeck coefficient 1.0 mV/K (≈2 series couples of the
    /// ~0.45 mV/K superlattice material) and resistance 2.8 mΩ. The implied
    /// material figure of merit `ZT = α²θ/(r·κ) ≈ 3.3` at 350 K sits at the
    /// optimistic end of the superlattice claims (Venkatasubramanian et al.
    /// report ZT ≈ 2.4 at 300 K; Chowdhury et al. build on those films) —
    /// most of that margin is consumed by the deliberately conservative
    /// contact conductances of 0.022 W/K per face (~1.1×10⁻⁵ K·m²/W
    /// interface resistivity), which make the *system-level* COP low, as in
    /// the paper's measurements. Calibrated so Table I reproduces:
    /// I_opt ≈ 3–7 A, P_TEC ≈ 1–4 W, greedy deployments of a handful of
    /// devices, and a positive full-cover swing loss on every benchmark.
    // The preset constants are fixed and positive; `new` accepts them.
    #[allow(clippy::expect_used)]
    pub fn superlattice_thin_film() -> TecParams {
        TecParams::new(
            VoltsPerKelvin(1.0e-3),
            Ohms(2.8e-3),
            WattsPerKelvin(0.0375),
            WattsPerKelvin(0.022),
            WattsPerKelvin(0.022),
            Meters::from_millimeters(0.5),
        )
        .expect("preset parameters are valid")
    }

    /// Seebeck coefficient `α` of the device.
    pub fn seebeck(&self) -> VoltsPerKelvin {
        self.seebeck
    }

    /// Electrical resistance `r`.
    pub fn resistance(&self) -> Ohms {
        self.resistance
    }

    /// Hot-to-cold thermal conductance `κ`.
    pub fn conductance(&self) -> WattsPerKelvin {
        self.conductance
    }

    /// Cold-face contact conductance `g_c`.
    pub fn cold_contact(&self) -> WattsPerKelvin {
        self.cold_contact
    }

    /// Hot-face contact conductance `g_h`.
    pub fn hot_contact(&self) -> WattsPerKelvin {
        self.hot_contact
    }

    /// Lateral side length (devices are square; one device covers one die
    /// tile in the paper's tiling).
    pub fn side(&self) -> Meters {
        self.side
    }

    /// A canonical text of the six device parameters, each as the 16 hex
    /// digits of its bits: resumable sweeps bind their checkpoints and
    /// ledgers to it.
    pub fn digest(&self) -> String {
        let mut digest = String::from("device");
        for v in [
            self.seebeck.value(),
            self.resistance.value(),
            self.conductance.value(),
            self.cold_contact.value(),
            self.hot_contact.value(),
            self.side.value(),
        ] {
            digest.push_str(&format!(" {:016x}", v.to_bits()));
        }
        digest
    }

    /// Device footprint area.
    pub fn area(&self) -> SquareMeters {
        self.side * self.side
    }

    /// Thermoelectric figure of merit `Z = α²/(r·κ)` in 1/K.
    pub fn figure_of_merit_z(&self) -> f64 {
        let a = self.seebeck.value();
        a * a / (self.resistance.value() * self.conductance.value())
    }

    /// Dimensionless figure of merit `ZT` at absolute temperature `theta`.
    pub fn figure_of_merit_zt(&self, theta: Kelvin) -> f64 {
        self.figure_of_merit_z() * theta.value()
    }

    /// The passive two-port element this device stamps into the TIM layer:
    /// `g_c` — `κ` — `g_h` (Fig. 4 without the current-dependent terms).
    pub fn two_port_spec(&self) -> TwoPortSpec {
        TwoPortSpec {
            lower_contact: self.cold_contact,
            mid: self.conductance,
            upper_contact: self.hot_contact,
        }
    }

    /// Returns a copy with both contact conductances scaled by `factor`
    /// (used by the contact-resistance ablation experiment).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if the factor is
    /// nonpositive.
    pub fn with_contact_scale(&self, factor: f64) -> Result<TecParams, DeviceError> {
        TecParams::new(
            self.seebeck,
            self.resistance,
            self.conductance,
            self.cold_contact * factor,
            self.hot_contact * factor,
            self.side,
        )
    }

    /// Returns a copy with a different Seebeck coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for nonpositive values.
    pub fn with_seebeck(&self, seebeck: VoltsPerKelvin) -> Result<TecParams, DeviceError> {
        TecParams::new(
            seebeck,
            self.resistance,
            self.conductance,
            self.cold_contact,
            self.hot_contact,
            self.side,
        )
    }

    /// Returns a copy with a different electrical resistance.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for nonpositive values.
    pub fn with_resistance(&self, resistance: Ohms) -> Result<TecParams, DeviceError> {
        TecParams::new(
            self.seebeck,
            resistance,
            self.conductance,
            self.cold_contact,
            self.hot_contact,
            self.side,
        )
    }

    /// The Peltier "conductance" `α·i` entering the network model at a given
    /// supply current.
    pub fn peltier_conductance(&self, current: Amperes) -> WattsPerKelvin {
        self.seebeck * current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_self_consistent() {
        let t = TecParams::superlattice_thin_film();
        assert!((t.side().to_millimeters() - 0.5).abs() < 1e-12);
        assert!((t.area().to_square_centimeters() - 0.0025).abs() < 1e-12);
        let z = t.figure_of_merit_z();
        assert!((z * 350.0 - t.figure_of_merit_zt(Kelvin(350.0))).abs() < 1e-12);
        // kappa = k A / t for 1.2 W/mK over 8 um.
        assert!((t.conductance().value() - 1.2 * 0.25e-6 / 8e-6).abs() < 1e-9);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let t = TecParams::superlattice_thin_film();
        assert!(matches!(
            TecParams::new(
                VoltsPerKelvin(0.0),
                t.resistance(),
                t.conductance(),
                t.cold_contact(),
                t.hot_contact(),
                t.side()
            ),
            Err(DeviceError::InvalidParameter { .. })
        ));
        assert!(t.with_contact_scale(-1.0).is_err());
        assert!(t.with_seebeck(VoltsPerKelvin(f64::NAN)).is_err());
        assert!(t.with_resistance(Ohms(-1.0)).is_err());
    }

    #[test]
    fn contact_scaling() {
        let t = TecParams::superlattice_thin_film();
        let scaled = t.with_contact_scale(2.0).unwrap();
        assert!((scaled.cold_contact().value() - 2.0 * t.cold_contact().value()).abs() < 1e-15);
        assert!((scaled.hot_contact().value() - 2.0 * t.hot_contact().value()).abs() < 1e-15);
        // Everything else unchanged.
        assert_eq!(scaled.seebeck(), t.seebeck());
        assert_eq!(scaled.resistance(), t.resistance());
    }

    #[test]
    fn two_port_spec_matches_fields() {
        let t = TecParams::superlattice_thin_film();
        let s = t.two_port_spec();
        assert_eq!(s.lower_contact, t.cold_contact());
        assert_eq!(s.mid, t.conductance());
        assert_eq!(s.upper_contact, t.hot_contact());
    }

    #[test]
    fn peltier_conductance_scales_with_current() {
        let t = TecParams::superlattice_thin_film();
        let g1 = t.peltier_conductance(Amperes(1.0));
        let g5 = t.peltier_conductance(Amperes(5.0));
        assert!((g5.value() - 5.0 * g1.value()).abs() < 1e-15);
    }
}
