use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::model::PassiveNetwork;
use crate::{Material, ThermalError, TileGrid};
use tecopt_linalg::{CholeskyPattern, ShiftedCholesky};
use tecopt_units::{Celsius, KelvinPerWatt, Meters};

/// Full geometric and material description of the chip package.
///
/// The stack, bottom-up as drawn in Fig. 2 of the paper: silicon die →
/// TIM layer (where TEC devices are immersed) → heat spreader → heat sink →
/// fan convection to ambient. The spreader and sink overhang the die and are
/// centered on it.
///
/// Use [`PackageConfig::hotspot41_like`] for the HotSpot-4.1-class defaults
/// the paper's experiments were run against, or [`PackageConfig::builder`]
/// for full control.
///
/// A configuration also carries its passive network and that network's
/// analysis and factor: the network and its `G` (which every
/// [`crate::CompactModel`] of the package is derived from), the Cholesky
/// pattern with its minimum-degree elimination order (which every
/// placement's Peltier-free block is factored on) and the slot of the
/// passive placement factor, each filled by the first model or system
/// that needs it and shared by every clone (see
/// [`crate::CompactModel::with_two_ports`],
/// [`crate::CompactModel::passive_pattern`] and
/// [`crate::CompactModel::passive_factor_slot`]). It is a cache of a
/// function of the other fields, which are fixed once built: equality and
/// [`PackageConfig::digest`] ignore it, and [`PackageConfigBuilder::build`]
/// always starts an empty one.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageConfig {
    grid: TileGrid,
    die_thickness: Meters,
    die_material: Material,
    tim_thickness: Meters,
    tim_material: Material,
    spreader_side: Meters,
    spreader_thickness: Meters,
    spreader_material: Material,
    spreader_cells: usize,
    sink_side: Meters,
    sink_thickness: Meters,
    sink_material: Material,
    sink_cells: usize,
    convection_resistance: KelvinPerWatt,
    ambient: Celsius,
    passive: PassiveSlot,
}

/// The lazily filled passive network of a [`PackageConfig`], with its
/// analysis and factor, one slot per built configuration and shared by its
/// clones. The network is filled by the first model of the package, passive
/// or not, before anything else. The pattern and its order are filled
/// together, from the passive `G`, by the first model that needs either.
/// The placement factor is filled by the first passive system that factors
/// `G` without a leading-block cache of its own. Racing first fills hold
/// the same deterministic result, so whichever wins is kept. Nothing in the
/// slot holds a configuration, so no `Arc` cycle runs through it.
#[derive(Clone, Default)]
pub(crate) struct PassiveSlot(Arc<PassiveAnalysis>);

#[derive(Default)]
struct PassiveAnalysis {
    /// The passive network, its `G` and the overlaps a splice needs.
    network: OnceLock<PassiveNetwork>,
    /// The passive network's pattern and its permutation.
    pattern: OnceLock<(Arc<CholeskyPattern>, Arc<[usize]>)>,
    placement: Arc<OnceLock<Arc<ShiftedCholesky>>>,
}

impl PassiveSlot {
    /// The passive network, if filled.
    pub(crate) fn network(&self) -> Option<&PassiveNetwork> {
        self.0.network.get()
    }

    /// Fills the passive network, and returns what the slot holds.
    pub(crate) fn fill_network(&self, network: PassiveNetwork) -> &PassiveNetwork {
        self.0.network.get_or_init(|| network)
    }

    /// The pattern and its order, if filled.
    pub(crate) fn analysis(&self) -> Option<&(Arc<CholeskyPattern>, Arc<[usize]>)> {
        self.0.pattern.get()
    }

    /// Fills the pattern and its order, and returns what the slot holds.
    pub(crate) fn fill(&self, pattern: CholeskyPattern) -> &(Arc<CholeskyPattern>, Arc<[usize]>) {
        self.0.pattern.get_or_init(|| {
            let order = pattern.permutation().into();
            (Arc::new(pattern), order)
        })
    }

    /// The slot of the passive network's placement factor.
    pub(crate) fn placement(&self) -> &Arc<OnceLock<Arc<ShiftedCholesky>>> {
        &self.0.placement
    }
}

/// The slot is a cache, not part of the package's identity.
impl PartialEq for PassiveSlot {
    fn eq(&self, _: &PassiveSlot) -> bool {
        true
    }
}

impl fmt::Debug for PassiveSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.analysis().is_some() {
            "filled"
        } else {
            "empty"
        };
        write!(f, "PassiveSlot(order: {state}, pattern: {state})")
    }
}

impl PackageConfig {
    /// HotSpot-4.1-class package with a `rows × cols` grid of 0.5 mm tiles.
    ///
    /// Geometry and materials follow the HotSpot defaults (0.15 mm silicon
    /// die, copper 30 mm / 1 mm spreader, copper 60 mm / 6.9 mm sink base,
    /// 45 °C ambient); the TIM thickness (0.085 mm) is in the thin-film-TEC
    /// integration range of Chowdhury et al. and the convection resistance
    /// (0.46 K/W) is calibrated so the Alpha-21364-like benchmark reproduces
    /// the paper's ~92 °C uncooled peak at 20.6 W total power (see
    /// `EXPERIMENTS.md`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] for a degenerate grid.
    pub fn hotspot41_like(rows: usize, cols: usize) -> Result<PackageConfig, ThermalError> {
        PackageConfig::builder(TileGrid::new(rows, cols, Meters::from_millimeters(0.5))?).build()
    }

    /// Starts building a package around the given die tile grid.
    pub fn builder(grid: TileGrid) -> PackageConfigBuilder {
        PackageConfigBuilder {
            grid,
            die_thickness: Meters::from_millimeters(0.15),
            die_material: Material::silicon(),
            tim_thickness: Meters::from_micrometers(85.0),
            tim_material: Material::thermal_interface(),
            spreader_side: Meters::from_millimeters(30.0),
            spreader_thickness: Meters::from_millimeters(1.0),
            spreader_material: Material::copper(),
            spreader_cells: 10,
            sink_side: Meters::from_millimeters(60.0),
            sink_thickness: Meters::from_millimeters(6.9),
            sink_material: Material::copper(),
            sink_cells: 12,
            convection_resistance: KelvinPerWatt(0.46),
            ambient: Celsius(45.0),
        }
    }

    /// The silicon die tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Die thickness.
    pub fn die_thickness(&self) -> Meters {
        self.die_thickness
    }

    /// Die material.
    pub fn die_material(&self) -> &Material {
        &self.die_material
    }

    /// TIM layer thickness.
    pub fn tim_thickness(&self) -> Meters {
        self.tim_thickness
    }

    /// TIM material.
    pub fn tim_material(&self) -> &Material {
        &self.tim_material
    }

    /// Heat-spreader side length (square).
    pub fn spreader_side(&self) -> Meters {
        self.spreader_side
    }

    /// Heat-spreader thickness.
    pub fn spreader_thickness(&self) -> Meters {
        self.spreader_thickness
    }

    /// Heat-spreader material.
    pub fn spreader_material(&self) -> &Material {
        &self.spreader_material
    }

    /// Number of compact-model cells per spreader side.
    pub fn spreader_cells(&self) -> usize {
        self.spreader_cells
    }

    /// Heat-sink base side length (square).
    pub fn sink_side(&self) -> Meters {
        self.sink_side
    }

    /// Heat-sink base thickness.
    pub fn sink_thickness(&self) -> Meters {
        self.sink_thickness
    }

    /// Heat-sink material.
    pub fn sink_material(&self) -> &Material {
        &self.sink_material
    }

    /// Number of compact-model cells per sink side.
    pub fn sink_cells(&self) -> usize {
        self.sink_cells
    }

    /// Total sink-to-ambient convection resistance (fan + fins).
    pub fn convection_resistance(&self) -> KelvinPerWatt {
        self.convection_resistance
    }

    /// Ambient air temperature.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// The slot holding the passive network, its order, pattern and
    /// placement factor.
    pub(crate) fn passive(&self) -> &PassiveSlot {
        &self.passive
    }

    /// A canonical text of every physical field: the grid, each layer's
    /// thickness, side, cell count and material (conductivity and heat
    /// capacity), the convection resistance and the ambient, floats as the
    /// 16 hex digits of their bits. Two packages with the same digest build
    /// bit-identical models; resumable sweeps bind their checkpoints and
    /// ledgers to it.
    pub fn digest(&self) -> String {
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let material = |m: &Material| {
            format!(
                "{} {}",
                hex(m.conductivity().value()),
                hex(m.volumetric_heat_capacity())
            )
        };
        format!(
            "package grid {}x{} tile {} die {} {} tim {} {} spreader {} {} {} {} \
             sink {} {} {} {} convection {} ambient {}",
            self.grid.rows(),
            self.grid.cols(),
            hex(self.grid.tile_size().value()),
            hex(self.die_thickness.value()),
            material(&self.die_material),
            hex(self.tim_thickness.value()),
            material(&self.tim_material),
            hex(self.spreader_side.value()),
            hex(self.spreader_thickness.value()),
            self.spreader_cells,
            material(&self.spreader_material),
            hex(self.sink_side.value()),
            hex(self.sink_thickness.value()),
            self.sink_cells,
            material(&self.sink_material),
            hex(self.convection_resistance.value()),
            hex(self.ambient.value()),
        )
    }
}

/// Builder for [`PackageConfig`]; see [`PackageConfig::builder`].
#[derive(Debug, Clone)]
pub struct PackageConfigBuilder {
    grid: TileGrid,
    die_thickness: Meters,
    die_material: Material,
    tim_thickness: Meters,
    tim_material: Material,
    spreader_side: Meters,
    spreader_thickness: Meters,
    spreader_material: Material,
    spreader_cells: usize,
    sink_side: Meters,
    sink_thickness: Meters,
    sink_material: Material,
    sink_cells: usize,
    convection_resistance: KelvinPerWatt,
    ambient: Celsius,
}

impl PackageConfigBuilder {
    /// Sets the die thickness.
    pub fn die_thickness(&mut self, t: Meters) -> &mut Self {
        self.die_thickness = t;
        self
    }

    /// Sets the die material.
    pub fn die_material(&mut self, m: Material) -> &mut Self {
        self.die_material = m;
        self
    }

    /// Sets the TIM thickness.
    pub fn tim_thickness(&mut self, t: Meters) -> &mut Self {
        self.tim_thickness = t;
        self
    }

    /// Sets the TIM material.
    pub fn tim_material(&mut self, m: Material) -> &mut Self {
        self.tim_material = m;
        self
    }

    /// Sets the spreader side length and thickness.
    pub fn spreader(&mut self, side: Meters, thickness: Meters) -> &mut Self {
        self.spreader_side = side;
        self.spreader_thickness = thickness;
        self
    }

    /// Sets the spreader material.
    pub fn spreader_material(&mut self, m: Material) -> &mut Self {
        self.spreader_material = m;
        self
    }

    /// Sets the compact-model lateral resolution of the spreader.
    pub fn spreader_cells(&mut self, cells: usize) -> &mut Self {
        self.spreader_cells = cells;
        self
    }

    /// Sets the sink base side length and thickness.
    pub fn sink(&mut self, side: Meters, thickness: Meters) -> &mut Self {
        self.sink_side = side;
        self.sink_thickness = thickness;
        self
    }

    /// Sets the sink material.
    pub fn sink_material(&mut self, m: Material) -> &mut Self {
        self.sink_material = m;
        self
    }

    /// Sets the compact-model lateral resolution of the sink.
    pub fn sink_cells(&mut self, cells: usize) -> &mut Self {
        self.sink_cells = cells;
        self
    }

    /// Sets the total convection resistance to ambient.
    pub fn convection_resistance(&mut self, r: KelvinPerWatt) -> &mut Self {
        self.convection_resistance = r;
        self
    }

    /// Sets the ambient temperature.
    pub fn ambient(&mut self, t: Celsius) -> &mut Self {
        self.ambient = t;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] if any thickness or side is
    /// nonpositive, the spreader does not cover the die, the sink does not
    /// cover the spreader, a cell count is zero, or the convection resistance
    /// is nonpositive.
    pub fn build(&self) -> Result<PackageConfig, ThermalError> {
        use tecopt_units::validate;
        validate::positive("die thickness", self.die_thickness.value())?;
        validate::positive("tim thickness", self.tim_thickness.value())?;
        validate::positive("spreader side", self.spreader_side.value())?;
        validate::positive("spreader thickness", self.spreader_thickness.value())?;
        validate::positive("sink side", self.sink_side.value())?;
        validate::positive("sink thickness", self.sink_thickness.value())?;
        validate::positive("convection resistance", self.convection_resistance.value())?;
        validate::non_zero("spreader cell count", self.spreader_cells)?;
        validate::non_zero("sink cell count", self.sink_cells)?;
        let die_extent = self.grid.width().value().max(self.grid.height().value());
        if self.spreader_side.value() < die_extent {
            return Err(ThermalError::InvalidConfig(format!(
                "spreader ({}) smaller than die ({} m)",
                self.spreader_side, die_extent
            )));
        }
        if self.sink_side.value() < self.spreader_side.value() {
            return Err(ThermalError::InvalidConfig(format!(
                "sink ({}) smaller than spreader ({})",
                self.sink_side, self.spreader_side
            )));
        }
        if !self.ambient.to_kelvin().value().is_finite() || self.ambient.to_kelvin().value() <= 0.0
        {
            return Err(ThermalError::InvalidConfig(format!(
                "ambient temperature {} is not physical",
                self.ambient
            )));
        }
        Ok(PackageConfig {
            grid: self.grid.clone(),
            die_thickness: self.die_thickness,
            die_material: self.die_material.clone(),
            tim_thickness: self.tim_thickness,
            tim_material: self.tim_material.clone(),
            spreader_side: self.spreader_side,
            spreader_thickness: self.spreader_thickness,
            spreader_material: self.spreader_material.clone(),
            spreader_cells: self.spreader_cells,
            sink_side: self.sink_side,
            sink_thickness: self.sink_thickness,
            sink_material: self.sink_material.clone(),
            sink_cells: self.sink_cells,
            convection_resistance: self.convection_resistance,
            ambient: self.ambient,
            passive: PassiveSlot::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preset_is_sane() {
        let c = PackageConfig::hotspot41_like(12, 12).unwrap();
        assert_eq!(c.grid().tile_count(), 144);
        assert!((c.grid().width().to_millimeters() - 6.0).abs() < 1e-9);
        assert!(c.spreader_side() > c.grid().width());
        assert!(c.sink_side() > c.spreader_side());
        assert_eq!(c.ambient(), Celsius(45.0));
        assert_eq!(c.die_material().name(), "silicon");
        assert_eq!(c.spreader_material().name(), "copper");
    }

    #[test]
    fn builder_overrides_apply() {
        let grid = TileGrid::new(4, 4, Meters::from_millimeters(0.5)).unwrap();
        let c = PackageConfig::builder(grid)
            .ambient(Celsius(25.0))
            .convection_resistance(KelvinPerWatt(0.8))
            .tim_thickness(Meters::from_micrometers(50.0))
            .spreader_cells(6)
            .sink_cells(8)
            .build()
            .unwrap();
        assert_eq!(c.ambient(), Celsius(25.0));
        assert_eq!(c.convection_resistance(), KelvinPerWatt(0.8));
        assert!((c.tim_thickness().value() - 50e-6).abs() < 1e-15);
        assert_eq!(c.spreader_cells(), 6);
        assert_eq!(c.sink_cells(), 8);
    }

    #[test]
    fn digest_covers_every_physical_field() {
        let grid = TileGrid::new(4, 4, Meters::from_millimeters(0.5)).unwrap();
        let base = PackageConfig::builder(grid.clone()).build().unwrap();
        let variants = [
            PackageConfig::builder(grid.clone())
                .convection_resistance(KelvinPerWatt(0.47))
                .build(),
            PackageConfig::builder(grid.clone())
                .ambient(Celsius(46.0))
                .build(),
            PackageConfig::builder(grid.clone())
                .tim_thickness(Meters::from_micrometers(86.0))
                .build(),
            PackageConfig::builder(grid.clone())
                .tim_material(Material::thermal_interface().with_heat_capacity(1.0e6))
                .build(),
            PackageConfig::builder(grid.clone()).sink_cells(11).build(),
            PackageConfig::builder(TileGrid::new(4, 4, Meters::from_millimeters(0.45)).unwrap())
                .build(),
        ];
        for v in variants {
            let v = v.unwrap();
            assert_ne!(v.digest(), base.digest(), "{v:?}");
            assert_ne!(v, base);
        }
        let rebuilt = PackageConfig::builder(grid).build().unwrap();
        assert_eq!(rebuilt.digest(), base.digest());
    }

    #[test]
    fn a_dropped_package_frees_its_slot() {
        use crate::{CompactModel, TileIndex, TwoPortSpec};
        use tecopt_units::WattsPerKelvin;
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let spec = TwoPortSpec {
            lower_contact: WattsPerKelvin(0.02),
            mid: WattsPerKelvin(0.04),
            upper_contact: WattsPerKelvin(0.02),
        };
        let passive = CompactModel::new(&config).unwrap();
        let placed =
            CompactModel::with_two_ports(&config, &[(TileIndex::new(1, 1), spec)]).unwrap();
        passive.cholesky_pattern().unwrap();
        placed.passive_pattern().unwrap();
        let slot = Arc::downgrade(&config.passive().0);
        assert!(slot.upgrade().is_some_and(|s| s.network.get().is_some()));
        drop((config, passive));
        assert!(slot.upgrade().is_some(), "a model keeps its package");
        drop(placed);
        assert!(slot.upgrade().is_none(), "the slot outlived every holder");
    }

    #[test]
    fn spreader_must_cover_die() {
        let grid = TileGrid::new(12, 12, Meters::from_millimeters(0.5)).unwrap();
        let err = PackageConfig::builder(grid)
            .spreader(Meters::from_millimeters(4.0), Meters::from_millimeters(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ThermalError::InvalidConfig(_)));
    }

    #[test]
    fn sink_must_cover_spreader() {
        let grid = TileGrid::new(4, 4, Meters::from_millimeters(0.5)).unwrap();
        let err = PackageConfig::builder(grid)
            .sink(
                Meters::from_millimeters(20.0),
                Meters::from_millimeters(6.9),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, ThermalError::InvalidConfig(_)));
    }

    #[test]
    fn nonpositive_parameters_rejected() {
        let grid = TileGrid::new(4, 4, Meters::from_millimeters(0.5)).unwrap();
        assert!(PackageConfig::builder(grid.clone())
            .die_thickness(Meters(0.0))
            .build()
            .is_err());
        assert!(PackageConfig::builder(grid.clone())
            .convection_resistance(KelvinPerWatt(-0.1))
            .build()
            .is_err());
        assert!(PackageConfig::builder(grid.clone())
            .spreader_cells(0)
            .build()
            .is_err());
        assert!(PackageConfig::builder(grid)
            .ambient(Celsius(-400.0))
            .build()
            .is_err());
    }
}
