//! The discrete design space the explorer enumerates.
//!
//! The sweep the paper's co-design argument calls for varies the device
//! itself, not just its placement: superlattice film thickness (which
//! moves thermal conductance and electrical resistance in opposite
//! directions), the quality of the die-attach contacts, and where — and
//! how many — devices sit on the die. A [`DesignSpace`] is the cross
//! product of those axes; every grid cell is a [`Candidate`] with a
//! deterministic id derived from the FNV fingerprint of the space's spec,
//! so two processes (or two fleet shards, or two crash/resume cycles)
//! enumerating the same spec agree on every id without coordination.

use tecopt::record::{fingerprint, hex_f64};
use tecopt::{OptError, TecParams};
use tecopt_thermal::TileIndex;
use tecopt_units::{Celsius, Ohms, WattsPerKelvin};

/// How one candidate places devices on the die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// A fixed placement mask: exactly these tiles get a device. An empty
    /// mask is legal to *enumerate* (it evaluates to the typed
    /// [`OptError::NoDevicesDeployed`] and quarantines deterministically).
    Tiles(Vec<TileIndex>),
    /// Run the paper's greedy deployment against the space's temperature
    /// limit and take whatever placement it builds.
    Greedy,
}

impl Placement {
    /// Stable spec encoding: `g` for greedy, `t:r,c;r,c` for a mask.
    fn spec(&self) -> String {
        match self {
            Placement::Greedy => "g".to_string(),
            Placement::Tiles(tiles) => {
                let ts: Vec<String> = tiles
                    .iter()
                    .map(|t| format!("{},{}", t.row, t.col))
                    .collect();
                format!("t:{}", ts.join(";"))
            }
        }
    }
}

/// The discrete grid of designs: thickness scales × contact scales ×
/// placements, plus the feasibility target they are all judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    thickness_scales: Vec<f64>,
    contact_scales: Vec<f64>,
    placements: Vec<Placement>,
    theta_limit: Celsius,
}

impl DesignSpace {
    /// Builds a design space after validating every axis.
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidParameter`] for an empty axis, a non-positive or
    /// non-finite scale, or a non-finite temperature limit.
    pub fn new(
        thickness_scales: Vec<f64>,
        contact_scales: Vec<f64>,
        placements: Vec<Placement>,
        theta_limit: Celsius,
    ) -> Result<DesignSpace, OptError> {
        for (axis, values) in [
            ("thickness scale", &thickness_scales),
            ("contact scale", &contact_scales),
        ] {
            if values.is_empty() {
                return Err(OptError::InvalidParameter(format!(
                    "design space needs at least one {axis}"
                )));
            }
            for v in values {
                if !(v.is_finite() && *v > 0.0) {
                    return Err(OptError::InvalidParameter(format!(
                        "{axis} must be positive and finite, got {v}"
                    )));
                }
            }
        }
        if placements.is_empty() {
            return Err(OptError::InvalidParameter(
                "design space needs at least one placement".into(),
            ));
        }
        if !theta_limit.value().is_finite() {
            return Err(OptError::InvalidParameter(format!(
                "temperature limit must be finite, got {}",
                theta_limit.value()
            )));
        }
        Ok(DesignSpace {
            thickness_scales,
            contact_scales,
            placements,
            theta_limit,
        })
    }

    /// Number of candidates in the grid.
    pub fn len(&self) -> usize {
        self.thickness_scales.len() * self.contact_scales.len() * self.placements.len()
    }

    /// `true` if the grid is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The feasibility target `T_max` every candidate is judged against.
    pub fn theta_limit(&self) -> Celsius {
        self.theta_limit
    }

    /// Thickness-scale axis.
    pub fn thickness_scales(&self) -> &[f64] {
        &self.thickness_scales
    }

    /// Contact-scale axis.
    pub fn contact_scales(&self) -> &[f64] {
        &self.contact_scales
    }

    /// Placement axis.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The versioned spec string the space fingerprint digests — every
    /// bit of every axis, in enumeration order.
    pub fn digest(&self) -> String {
        let mut d = String::from("explore-space v1 limit ");
        d.push_str(&hex_f64(self.theta_limit.value()));
        d.push_str(" thickness");
        for s in &self.thickness_scales {
            d.push(' ');
            d.push_str(&hex_f64(*s));
        }
        d.push_str(" contact");
        for s in &self.contact_scales {
            d.push(' ');
            d.push_str(&hex_f64(*s));
        }
        d.push_str(" placements");
        for p in &self.placements {
            d.push(' ');
            d.push_str(&p.spec());
        }
        d
    }

    /// FNV-1a fingerprint of [`DesignSpace::digest`] — the identity the
    /// work ledger and every candidate id are derived from.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.digest())
    }

    /// The candidate at enumeration index `index` (thickness-major, then
    /// contact, then placement).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` (enumeration is driven by
    /// [`DesignSpace::candidates`], which stays in range).
    fn candidate_at(&self, space_fp: u64, index: usize) -> Candidate {
        let per_thickness = self.contact_scales.len() * self.placements.len();
        let t = index / per_thickness;
        let rest = index % per_thickness;
        let c = rest / self.placements.len();
        let p = rest % self.placements.len();
        Candidate {
            id: candidate_id(space_fp, index),
            index,
            thickness_scale: self.thickness_scales[t],
            contact_scale: self.contact_scales[c],
            placement: self.placements[p].clone(),
        }
    }

    /// Enumerates every candidate in deterministic order with its
    /// deterministic id.
    pub fn candidates(&self) -> Vec<Candidate> {
        let fp = self.fingerprint();
        (0..self.len()).map(|i| self.candidate_at(fp, i)).collect()
    }
}

/// The deterministic id of candidate `index` in the space whose
/// fingerprint is `space_fp`: an FNV-1a fold of both, so ids are stable
/// across processes and unique within a space (indices differ) while two
/// different specs virtually never collide on an id.
pub fn candidate_id(space_fp: u64, index: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in space_fp
        .to_le_bytes()
        .into_iter()
        .chain((index as u64).to_le_bytes())
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One cell of the design grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Deterministic id (see [`candidate_id`]).
    pub id: u64,
    /// Enumeration index within the space.
    pub index: usize,
    /// Film thickness relative to the base device.
    pub thickness_scale: f64,
    /// Contact conductance relative to the base device.
    pub contact_scale: f64,
    /// Device placement.
    pub placement: Placement,
}

impl Candidate {
    /// The candidate's device: film thickness scales thermal conductance
    /// down (`κ ∝ A/t`) and electrical resistance up (`r ∝ t/A`) in the
    /// same ratio, and both contact conductances scale together — the
    /// first-order lumped model of a thicker or thinner superlattice
    /// stack with better or worse die attach.
    ///
    /// # Errors
    ///
    /// [`OptError::Device`] if the scaled values leave the validated
    /// range (cannot happen for the positive finite scales
    /// [`DesignSpace::new`] admits, short of float overflow).
    pub fn scaled_params(&self, base: &TecParams) -> Result<TecParams, OptError> {
        let t = self.thickness_scale;
        let scaled = TecParams::new(
            base.seebeck(),
            Ohms(base.resistance().value() * t),
            WattsPerKelvin(base.conductance().value() / t),
            WattsPerKelvin(base.cold_contact().value() * self.contact_scale),
            WattsPerKelvin(base.hot_contact().value() * self.contact_scale),
            base.side(),
        )?;
        Ok(scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_units::Kelvin;

    fn space() -> DesignSpace {
        DesignSpace::new(
            vec![0.5, 1.0],
            vec![1.0, 2.0],
            vec![
                Placement::Tiles(vec![TileIndex::new(1, 1)]),
                Placement::Greedy,
            ],
            Celsius(80.0),
        )
        .unwrap()
    }

    #[test]
    fn enumeration_is_deterministic_and_ids_are_unique() {
        let a = space().candidates();
        let b = space().candidates();
        assert_eq!(a.len(), 8);
        assert_eq!(a, b);
        let mut ids: Vec<u64> = a.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn ids_change_with_the_spec() {
        let a = space().candidates();
        let other = DesignSpace::new(
            vec![0.5, 1.0],
            vec![1.0, 2.0],
            vec![
                Placement::Tiles(vec![TileIndex::new(1, 1)]),
                Placement::Greedy,
            ],
            Celsius(81.0),
        )
        .unwrap()
        .candidates();
        assert_ne!(a[0].id, other[0].id);
    }

    #[test]
    fn validation_rejects_bad_axes() {
        assert!(
            DesignSpace::new(vec![], vec![1.0], vec![Placement::Greedy], Celsius(80.0)).is_err()
        );
        assert!(
            DesignSpace::new(vec![0.0], vec![1.0], vec![Placement::Greedy], Celsius(80.0)).is_err()
        );
        assert!(DesignSpace::new(
            vec![1.0],
            vec![f64::NAN],
            vec![Placement::Greedy],
            Celsius(80.0)
        )
        .is_err());
        assert!(DesignSpace::new(vec![1.0], vec![1.0], vec![], Celsius(80.0)).is_err());
        assert!(DesignSpace::new(
            vec![1.0],
            vec![1.0],
            vec![Placement::Greedy],
            Celsius(f64::NAN)
        )
        .is_err());
    }

    #[test]
    fn thickness_moves_conductance_and_resistance_oppositely() {
        let base = TecParams::superlattice_thin_film();
        let cand = &space().candidates()[0]; // thickness 0.5, contact 1.0
        let scaled = cand.scaled_params(&base).unwrap();
        assert!(scaled.conductance().value() > base.conductance().value());
        assert!(scaled.resistance().value() < base.resistance().value());
        // Halving the film leaves the material figure of merit unchanged.
        let z_base = base.figure_of_merit_zt(Kelvin(350.0));
        let z_scaled = scaled.figure_of_merit_zt(Kelvin(350.0));
        assert!((z_base - z_scaled).abs() < 1e-12);
    }
}
