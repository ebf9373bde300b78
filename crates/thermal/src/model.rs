use std::sync::{Arc, OnceLock};

use crate::geometry::LayerGrid;
use crate::network::Reuse;
use crate::{NodeId, NodeKind, PackageConfig, ThermalError, ThermalNetwork, TileIndex};
use tecopt_linalg::{Cholesky, CholeskyPattern, CsrMatrix, ShiftedCholesky};
use tecopt_units::{Celsius, Kelvin, Watts, WattsPerKelvin};

/// Conductances of a two-port element spliced into the TIM layer in place of
/// a TIM tile (Fig. 4 of the paper, minus the active Peltier/Joule terms
/// which belong to the device layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPortSpec {
    /// Contact conductance between the die tile and the lower terminal
    /// (the paper's `g_c`).
    pub lower_contact: WattsPerKelvin,
    /// Conductance between the two terminals (the device conductance `κ`).
    pub mid: WattsPerKelvin,
    /// Contact conductance between the upper terminal and the spreader
    /// (the paper's `g_h`).
    pub upper_contact: WattsPerKelvin,
}

impl TwoPortSpec {
    /// Validates that all three conductances are positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] otherwise.
    pub fn validate(&self) -> Result<(), ThermalError> {
        for (g, what) in [
            (self.lower_contact, "lower contact conductance"),
            (self.mid, "mid conductance"),
            (self.upper_contact, "upper contact conductance"),
        ] {
            if g.value() <= 0.0 || !g.is_finite() {
                return Err(ThermalError::InvalidConfig(format!(
                    "{what} must be positive and finite, got {g}"
                )));
            }
        }
        Ok(())
    }
}

/// Node ids of a spliced two-port element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoPort {
    /// Terminal facing the die (the TEC cold side).
    pub lower: NodeId,
    /// Terminal facing the spreader (the TEC hot side).
    pub upper: NodeId,
}

/// What occupies the TIM layer above a given die tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileInterface {
    /// A plain TIM tile.
    Tim(NodeId),
    /// A spliced two-port element (a TEC device in the paper's system).
    TwoPort(TwoPort),
}

/// The assembled compact thermal model of the package.
///
/// The package's passive network is built once per [`PackageConfig`]:
/// every layer dissected into cells (Sec. IV.A of the paper), lateral and
/// vertical conductances stamped, the ambient node eliminated and the
/// conductance matrix `G` assembled straight into CSR (at a 12×12-tile
/// package `G` has n = 536 rows and 1.2 % nonzeros). Every model is derived
/// from it: a passive model shares it, a model with devices splices their
/// two-ports into it ([`CompactModel::with_two_ports`]). The model is
/// immutable after construction: deployments with different TEC tile sets
/// derive fresh models.
///
/// The model also owns the network's [`CholeskyPattern`]: analysed on the
/// first factorization ([`CompactModel::cholesky_pattern`]) and shared by
/// every clone, so the symbolic analysis costs once per network however
/// many solvers, transient steppers and passive solves factor its `G − i·D`
/// or `C/Δt + G − i·D`. The passive network's analysis costs once per
/// package: its minimum-degree order and its pattern live in the
/// [`PackageConfig`] ([`CompactModel::passive_pattern`]), every passive
/// network built from clones of that configuration shares that one
/// pattern, and every placement's Peltier-free block is factored on it
/// through the map of its nodes into the passive network
/// ([`CompactModel::passive_nodes`]). A network with spliced devices keeps
/// a minimum-degree analysis of its own for its whole-network factors.
///
/// ```
/// use tecopt_thermal::{CompactModel, PackageConfig};
/// use tecopt_units::Watts;
///
/// # fn main() -> Result<(), tecopt_thermal::ThermalError> {
/// let config = PackageConfig::hotspot41_like(6, 6)?;
/// let model = CompactModel::new(&config)?;
/// let temps = model.solve_passive(&vec![Watts(0.1); 36])?;
/// // Uniform heating: hottest in the die center.
/// let peak = model.peak_silicon_temperature(&temps);
/// assert!(peak > config.ambient());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompactModel {
    config: PackageConfig,
    /// Immutable once built, so clones of the model (and every passive
    /// model of the package) share it, as they share `injection` and `g`.
    network: Arc<ThermalNetwork>,
    silicon: Vec<NodeId>,
    interfaces: Vec<TileInterface>,
    spreader: Vec<NodeId>,
    sink: Vec<NodeId>,
    /// Ambient-elimination power injection per node (W).
    injection: Arc<[f64]>,
    g: Arc<CsrMatrix>,
    /// The Cholesky pattern of `G`, analysed (or, for a passive network,
    /// taken from the package) on first use. The slot itself is shared, so
    /// a clone made before the analysis still sees it.
    pattern: Arc<OnceLock<Arc<CholeskyPattern>>>,
}

impl CompactModel {
    /// Builds the model with plain TIM everywhere (no TEC devices).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from assembly.
    pub fn new(config: &PackageConfig) -> Result<CompactModel, ThermalError> {
        CompactModel::with_two_ports(config, &[])
    }

    /// Builds the model with the given tiles' TIM nodes replaced by two-port
    /// elements ("we simply substitute the corresponding TIM node with the
    /// thermal model of the TEC device", Sec. IV.B).
    ///
    /// Every model is derived from the package's passive network, which is
    /// built from geometry once per built [`PackageConfig`] and kept in it:
    /// with no splices the model shares that network, its `G` and its
    /// injection (pointer-equal across every passive model of the
    /// package); otherwise the two-ports are spliced into a copy of its
    /// stamp list and only the rows of `G` they touch are summed again.
    /// Either is bit-identical to the geometric build
    /// ([`CompactModel::from_geometry`]).
    ///
    /// # Errors
    ///
    /// - [`ThermalError::TileOutOfBounds`] for a splice outside the grid.
    /// - [`ThermalError::DuplicateTwoPort`] if a tile is listed twice.
    /// - [`ThermalError::InvalidConfig`] for nonpositive spec conductances.
    pub fn with_two_ports(
        config: &PackageConfig,
        splices: &[(TileIndex, TwoPortSpec)],
    ) -> Result<CompactModel, ThermalError> {
        let splice_at = splice_table(config, splices)?;
        let passive = PassiveNetwork::of(config)?;
        if splices.is_empty() {
            return Ok(passive.model(config));
        }
        passive.splice(config, &splice_at, splices.len())
    }

    /// Builds the model from the package geometry, layer by layer: the
    /// oracle [`CompactModel::with_two_ports`] is tested against, bit for
    /// bit. No solve path uses it. It takes the same splices and returns
    /// the same errors.
    ///
    /// # Errors
    ///
    /// As [`CompactModel::with_two_ports`].
    pub fn from_geometry(
        config: &PackageConfig,
        splices: &[(TileIndex, TwoPortSpec)],
    ) -> Result<CompactModel, ThermalError> {
        let splice_at = splice_table(config, splices)?;
        let built = Geometry::stamp(config, &splice_at, splices.len());
        built.network.validate_grounding()?;
        let g = built.network.assemble();
        Ok(CompactModel {
            config: config.clone(),
            network: Arc::new(built.network),
            silicon: built.silicon,
            interfaces: built.interfaces,
            spreader: built.spreader,
            sink: built.sink,
            injection: built.injection.into(),
            g: Arc::new(g),
            pattern: Arc::new(OnceLock::new()),
        })
    }

    /// A model of `config` on a network numbered as the geometry numbers
    /// it: one silicon node per tile, then the interface layer
    /// (`interfaces`), then the spreader and the sink cells.
    fn on_network(
        config: &PackageConfig,
        network: Arc<ThermalNetwork>,
        interfaces: Vec<TileInterface>,
        injection: Arc<[f64]>,
        g: Arc<CsrMatrix>,
    ) -> CompactModel {
        let n = network.node_count();
        let first_sink = n - config.sink_cells() * config.sink_cells();
        let first_spreader = first_sink - config.spreader_cells() * config.spreader_cells();
        CompactModel {
            config: config.clone(),
            network,
            silicon: (0..interfaces.len()).map(NodeId).collect(),
            interfaces,
            spreader: (first_spreader..first_sink).map(NodeId).collect(),
            sink: (first_sink..n).map(NodeId).collect(),
            injection,
            g,
            pattern: Arc::new(OnceLock::new()),
        }
    }

    /// The package configuration this model was built from.
    pub fn config(&self) -> &PackageConfig {
        &self.config
    }

    /// The underlying network (node metadata).
    pub fn network(&self) -> &ThermalNetwork {
        &self.network
    }

    /// Total number of nodes (the order of `G`).
    pub fn node_count(&self) -> usize {
        self.network.node_count()
    }

    /// The assembled conductance matrix `G` of Eq. 4, in CSR. Every
    /// diagonal entry is stored.
    pub fn g_matrix(&self) -> &CsrMatrix {
        &self.g
    }

    /// The Cholesky pattern of `G`, analysed on the first call and shared
    /// by every clone of this model. It serves every matrix of the network
    /// that differs from `G` only on the diagonal (`G − i·D`,
    /// `C/Δt + G − i·D`), via `Cholesky::factor_csr_with`.
    ///
    /// A passive network's pattern is the package's
    /// ([`CompactModel::passive_pattern`]), pointer-equal across every
    /// passive model built from clones of that configuration, whatever
    /// their power maps. A network with spliced devices runs minimum degree on
    /// its own structure: the package order with the cold/hot pairs
    /// substituted in fills the full-cover factor 1.4× (12×12) to 2.8×
    /// (64×64) more.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] if the analysis fails (it cannot for an
    /// assembled model: `G` is square).
    pub fn cholesky_pattern(&self) -> Result<&Arc<CholeskyPattern>, ThermalError> {
        if let Some(p) = self.pattern.get() {
            return Ok(p);
        }
        let pattern = if self.is_passive() {
            Arc::clone(self.passive_pattern()?)
        } else {
            Arc::new(CholeskyPattern::analyse_csr(&self.g)?)
        };
        // A racing first call may have won; either holds the same analysis.
        Ok(self.pattern.get_or_init(|| pattern))
    }

    /// The Cholesky pattern of the package's passive network (the network
    /// of `CompactModel::new(self.config())`), analysed once and kept in
    /// the [`PackageConfig`] beside the package order: pointer-equal across
    /// every model built from clones of this model's configuration. The
    /// first model to need it fills it, passive or not, by a minimum-degree
    /// analysis of the package's passive `G`.
    ///
    /// Every placement's Peltier-free block `G_AA` is an induced subgraph
    /// of the passive network, eliminated in the package order, so this
    /// one pattern covers every placement's fill: each factors `G_AA` on
    /// it (`tecopt_linalg::ShiftedCholesky::with_package_pattern`).
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] if the analysis fails (it cannot: the
    /// structure is square).
    pub fn passive_pattern(&self) -> Result<&Arc<CholeskyPattern>, ThermalError> {
        Ok(&self.passive_analysis()?.0)
    }

    /// The minimum-degree elimination order of the package's passive
    /// network: the permutation of [`CompactModel::passive_pattern`],
    /// filled with it and pointer-equal across every model built from
    /// clones of this model's [`PackageConfig`].
    ///
    /// # Errors
    ///
    /// As [`CompactModel::passive_pattern`].
    pub fn package_order(&self) -> Result<&Arc<[usize]>, ThermalError> {
        Ok(&self.passive_analysis()?.1)
    }

    /// The package's passive pattern and order, filled on first use from
    /// the package's passive network.
    fn passive_analysis(&self) -> Result<&(Arc<CholeskyPattern>, Arc<[usize]>), ThermalError> {
        let slot = self.config.passive();
        if let Some(filled) = slot.analysis() {
            return Ok(filled);
        }
        let passive = PassiveNetwork::of(&self.config)?;
        Ok(slot.fill(CholeskyPattern::analyse_csr(&passive.g)?))
    }

    /// The package's slot for the placement factor of its passive network
    /// (the [`ShiftedCholesky`] of `G` with an empty support), if this
    /// model is passive: one slot per built [`PackageConfig`], shared by
    /// every passive model of its clones, so every passive system of one
    /// package factors `G` once. A passive `G` depends on the package
    /// fields alone, so whichever passive system fills it first fills it
    /// for all. `None` for a model with spliced devices, whose factor is
    /// its own.
    pub fn passive_factor_slot(&self) -> Option<&Arc<OnceLock<Arc<ShiftedCholesky>>>> {
        self.is_passive().then(|| self.config.passive().placement())
    }

    /// Each node's index in the package's passive network (the network of
    /// `CompactModel::new(self.config())`, numbered silicon, TIM,
    /// spreader, sink): a spliced tile's cold and hot nodes both map to its
    /// TIM node, every other node to its own counterpart. Off the Peltier
    /// support the map is one-to-one, and it carries a placement's `G_AA`
    /// onto the passive network it is an induced subgraph of.
    pub fn passive_nodes(&self) -> Vec<usize> {
        let tiles = self.silicon.len();
        let mut passive = vec![0; self.node_count()];
        for (k, id) in self.silicon.iter().enumerate() {
            passive[id.index()] = k;
        }
        for (k, interface) in self.interfaces.iter().enumerate() {
            match interface {
                TileInterface::Tim(id) => passive[id.index()] = tiles + k,
                TileInterface::TwoPort(tp) => {
                    passive[tp.lower.index()] = tiles + k;
                    passive[tp.upper.index()] = tiles + k;
                }
            }
        }
        for (k, id) in self.spreader.iter().chain(&self.sink).enumerate() {
            passive[id.index()] = 2 * tiles + k;
        }
        passive
    }

    /// The package order ([`CompactModel::package_order`]) on this
    /// network's nodes: each spliced tile's TIM node replaced in place by
    /// its cold/hot pair, so a permutation of `0..node_count()`. Restricted
    /// to the nodes off the Peltier support it is the order in which a
    /// placement's `G_AA` is eliminated on the passive pattern, and the
    /// order of its exact-pattern oracle
    /// (`tecopt_linalg::ShiftedCholesky::with_order`).
    ///
    /// # Errors
    ///
    /// As [`CompactModel::package_order`].
    pub fn network_order(&self) -> Result<Vec<usize>, ThermalError> {
        let tiles = self.silicon.len();
        let mut order = Vec::with_capacity(self.node_count());
        // The passive network numbers silicon, interfaces, spreader, sink.
        for &node in self.package_order()?.iter() {
            if node < tiles {
                order.push(self.silicon[node].index());
            } else if node < 2 * tiles {
                match self.interfaces[node - tiles] {
                    TileInterface::Tim(id) => order.push(id.index()),
                    TileInterface::TwoPort(tp) => {
                        order.extend([tp.lower.index(), tp.upper.index()]);
                    }
                }
            } else {
                let block = node - 2 * tiles;
                let id = match self.spreader.get(block) {
                    Some(&id) => id,
                    None => self.sink[block - self.spreader.len()],
                };
                order.push(id.index());
            }
        }
        Ok(order)
    }

    /// Whether no tile has a spliced device.
    fn is_passive(&self) -> bool {
        self.interfaces
            .iter()
            .all(|i| matches!(i, TileInterface::Tim(_)))
    }

    /// Silicon node of each tile, row-major.
    pub fn silicon_nodes(&self) -> &[NodeId] {
        &self.silicon
    }

    /// Silicon node of a tile.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::TileOutOfBounds`] for a foreign tile.
    pub fn silicon_node(&self, tile: TileIndex) -> Result<NodeId, ThermalError> {
        if !self.config.grid().contains(tile) {
            return Err(ThermalError::TileOutOfBounds {
                row: tile.row,
                col: tile.col,
                rows: self.config.grid().rows(),
                cols: self.config.grid().cols(),
            });
        }
        Ok(self.silicon[self.config.grid().linear_index(tile)])
    }

    /// Interface occupancy per tile, row-major.
    pub fn interfaces(&self) -> &[TileInterface] {
        &self.interfaces
    }

    /// All spliced two-ports with their tiles.
    pub fn two_ports(&self) -> Vec<(TileIndex, TwoPort)> {
        self.config
            .grid()
            .tiles()
            .zip(&self.interfaces)
            .filter_map(|(t, i)| match i {
                TileInterface::TwoPort(tp) => Some((t, *tp)),
                TileInterface::Tim(_) => None,
            })
            .collect()
    }

    /// Spreader cell nodes, row-major.
    pub fn spreader_nodes(&self) -> &[NodeId] {
        &self.spreader
    }

    /// Sink cell nodes, row-major.
    pub fn sink_nodes(&self) -> &[NodeId] {
        &self.sink
    }

    /// The ambient-elimination injection vector (W per node): the
    /// `g_conv · θ_ambient` sources that keep sink cells tied to ambient.
    pub fn ambient_injection(&self) -> &[f64] {
        &self.injection
    }

    /// Assembles the full power vector `p` for the given per-tile silicon
    /// powers: ambient injection plus dissipation at the silicon nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] if the slice does not
    /// have one entry per tile.
    pub fn power_vector(&self, silicon_powers: &[Watts]) -> Result<Vec<f64>, ThermalError> {
        if silicon_powers.len() != self.silicon.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.silicon.len(),
                actual: silicon_powers.len(),
            });
        }
        let mut p = self.injection.to_vec();
        for (id, w) in self.silicon.iter().zip(silicon_powers) {
            p[id.index()] += w.value();
        }
        Ok(p)
    }

    /// Solves the passive steady state `G·θ = p` (no TEC current).
    ///
    /// # Errors
    ///
    /// Power-length mismatches and factorization failures (the latter cannot
    /// occur for a validly assembled model).
    pub fn solve_passive(&self, silicon_powers: &[Watts]) -> Result<Vec<Kelvin>, ThermalError> {
        let p = self.power_vector(silicon_powers)?;
        let chol = Cholesky::factor_csr_with(self.cholesky_pattern()?, &self.g)
            .map_err(ThermalError::from)?;
        let theta = chol.solve(&p).map_err(ThermalError::from)?;
        Ok(theta.into_iter().map(Kelvin).collect())
    }

    /// Silicon tile temperatures extracted from a full node temperature
    /// vector, row-major, in Celsius.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not cover all nodes.
    pub fn silicon_temperatures(&self, temps: &[Kelvin]) -> Vec<Celsius> {
        assert!(
            temps.len() == self.node_count(),
            "temperature vector length"
        );
        self.silicon
            .iter()
            .map(|id| temps[id.index()].to_celsius())
            .collect()
    }

    /// Peak silicon temperature in a solved state.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not cover all nodes.
    pub fn peak_silicon_temperature(&self, temps: &[Kelvin]) -> Celsius {
        self.silicon_temperatures(temps)
            .into_iter()
            .fold(Celsius(f64::NEG_INFINITY), Celsius::max)
    }

    /// Per-node thermal capacitance in J/K, for the [`transient`](crate::transient)
    /// extension: each node carries the heat capacity of the material volume
    /// it lumps. Two-port terminals each carry half of the displaced TIM
    /// tile's capacity (thin-film devices have negligible mass of their own,
    /// but a zero capacitance would make the backward-Euler update singular
    /// in the limit of small steps).
    pub fn capacitance_vector(&self) -> Vec<f64> {
        let cfg = &self.config;
        let tile_area = cfg.grid().tile_area().value();
        let c_die =
            tile_area * cfg.die_thickness().value() * cfg.die_material().volumetric_heat_capacity();
        let c_tim =
            tile_area * cfg.tim_thickness().value() * cfg.tim_material().volumetric_heat_capacity();
        let sp_cell = cfg.spreader_side().value() / cfg.spreader_cells() as f64;
        let c_spreader = sp_cell
            * sp_cell
            * cfg.spreader_thickness().value()
            * cfg.spreader_material().volumetric_heat_capacity();
        let sink_cell = cfg.sink_side().value() / cfg.sink_cells() as f64;
        let c_sink = sink_cell
            * sink_cell
            * cfg.sink_thickness().value()
            * cfg.sink_material().volumetric_heat_capacity();
        self.network
            .kinds()
            .iter()
            .map(|kind| match kind {
                NodeKind::Silicon(_) => c_die,
                NodeKind::Interface(_) => c_tim,
                NodeKind::TwoPortLower(_) | NodeKind::TwoPortUpper(_) => 0.5 * c_tim,
                NodeKind::Spreader(_) => c_spreader,
                NodeKind::Sink(_) => c_sink,
            })
            .collect()
    }

    /// Structural self-check: `G` is a symmetric positive-definite Stieltjes
    /// matrix and the conductance graph is irreducible (Lemma 1).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] describing the violation.
    pub fn validate(&self) -> Result<(), ThermalError> {
        self.network.validate_grounding()?;
        // The structure checks are dense; validation is a diagnostic, not a
        // solve path.
        let g = self.g.to_dense();
        if let Err(v) = tecopt_linalg::stieltjes::check_stieltjes(&g, 1e-9) {
            return Err(ThermalError::InvalidConfig(format!(
                "assembled G violates the Stieltjes property: {v:?}"
            )));
        }
        if !tecopt_linalg::stieltjes::is_irreducible(&g) {
            return Err(ThermalError::InvalidConfig(
                "assembled G is reducible".into(),
            ));
        }
        Ok(())
    }
}

/// Each tile's two-port spec, if spliced, by linear index: the splices
/// checked in order for bounds, spec and duplicates.
fn splice_table(
    config: &PackageConfig,
    splices: &[(TileIndex, TwoPortSpec)],
) -> Result<Vec<Option<TwoPortSpec>>, ThermalError> {
    let grid = config.grid();
    let mut splice_at: Vec<Option<TwoPortSpec>> = vec![None; grid.tile_count()];
    for (t, spec) in splices {
        if !grid.contains(*t) {
            return Err(ThermalError::TileOutOfBounds {
                row: t.row,
                col: t.col,
                rows: grid.rows(),
                cols: grid.cols(),
            });
        }
        spec.validate()?;
        let k = grid.linear_index(*t);
        if splice_at[k].is_some() {
            return Err(ThermalError::DuplicateTwoPort {
                row: t.row,
                col: t.col,
            });
        }
        splice_at[k] = Some(*spec);
    }
    Ok(splice_at)
}

impl TwoPortSpec {
    /// Die tile → lower terminal: the die's half resistance `die_half`
    /// over the tile in series with the lower contact.
    fn lower_conductance(&self, die_half: f64) -> f64 {
        1.0 / (die_half + 1.0 / self.lower_contact.value())
    }

    /// Upper terminal → a spreader cell overlapping the tile by
    /// `overlap`: the contact conductance apportioned by overlap, in
    /// series with the spreader's half resistance over the overlap.
    fn upper_conductance(&self, overlap: &Overlap, tile_area: f64) -> f64 {
        let g_contact = self.upper_contact.value() * (overlap.area / tile_area);
        1.0 / (1.0 / g_contact + overlap.spreader_half)
    }
}

/// A die tile's overlap with one spreader cell.
#[derive(Debug, Clone, Copy)]
struct Overlap {
    /// Overlap area (m²).
    area: f64,
    /// The spreader's half resistance through the overlap (K/W).
    spreader_half: f64,
}

/// A network stamped from the package geometry, and where its stamps sit.
struct Geometry {
    network: ThermalNetwork,
    silicon: Vec<NodeId>,
    interfaces: Vec<TileInterface>,
    spreader: Vec<NodeId>,
    sink: Vec<NodeId>,
    injection: Vec<f64>,
    /// The first TIM lateral stamp; they run up to `vertical[0]`.
    tim_lateral: usize,
    /// Tile `k`'s vertical stamps are `vertical[k]..vertical[k + 1]`: die
    /// to interface first, then interface to each spreader cell it
    /// overlaps.
    vertical: Vec<usize>,
    /// Each interface-to-spreader stamp's overlap, in stamp order.
    overlaps: Vec<Overlap>,
    /// The die's half resistance over one tile (K/W).
    die_half: f64,
    /// One tile's area (m²).
    tile_area: f64,
}

impl Geometry {
    /// Dissects every layer into cells and stamps the network, with a
    /// two-port on each tile `splice_at` gives a spec (`splices` of them).
    fn stamp(
        config: &PackageConfig,
        splice_at: &[Option<TwoPortSpec>],
        splices: usize,
    ) -> Geometry {
        let grid = config.grid();
        let rows = grid.rows();
        let cols = grid.cols();
        let tile = grid.tile_size().value();
        let tile_area = tile * tile;

        // Absolute geometry: sink lower-left at the origin, everything
        // centered on the sink.
        let sink_side = config.sink_side().value();
        let sp_side = config.spreader_side().value();
        let die_w = grid.width().value();
        let die_h = grid.height().value();

        let die_layer = LayerGrid {
            x0: 0.5 * (sink_side - die_w),
            y0: 0.5 * (sink_side - die_h),
            nx: cols,
            ny: rows,
            cell: tile,
            thickness: config.die_thickness().value(),
            conductivity: config.die_material().conductivity().value(),
        };
        let tim_layer = LayerGrid {
            thickness: config.tim_thickness().value(),
            conductivity: config.tim_material().conductivity().value(),
            ..die_layer.clone()
        };
        let spreader_layer = LayerGrid {
            x0: 0.5 * (sink_side - sp_side),
            y0: 0.5 * (sink_side - sp_side),
            nx: config.spreader_cells(),
            ny: config.spreader_cells(),
            cell: sp_side / config.spreader_cells() as f64,
            thickness: config.spreader_thickness().value(),
            conductivity: config.spreader_material().conductivity().value(),
        };
        let sink_layer = LayerGrid {
            x0: 0.0,
            y0: 0.0,
            nx: config.sink_cells(),
            ny: config.sink_cells(),
            cell: sink_side / config.sink_cells() as f64,
            thickness: config.sink_thickness().value(),
            conductivity: config.sink_material().conductivity().value(),
        };

        // Room for every node and stamp up front. The counts are exact but
        // for the overlap windows, bounded by the cells a square of the
        // tile's (the spreader cell's) side can cover.
        let window = |layer: &LayerGrid, side: f64| {
            let per_axis = (side / layer.cell).ceil() as usize + 1;
            per_axis.min(layer.nx) * per_axis.min(layer.ny)
        };
        let lateral = |nx: usize, ny: usize| nx * ny.saturating_sub(1) + ny * nx.saturating_sub(1);
        let tiles = grid.tile_count();
        let nodes = 2 * tiles + splices + spreader_layer.cell_count() + sink_layer.cell_count();
        let tile_window = window(&spreader_layer, tile);
        let edges = 2 * lateral(cols, rows)
            + tiles * (2 + tile_window)
            + lateral(spreader_layer.nx, spreader_layer.ny)
            + spreader_layer.cell_count() * window(&sink_layer, spreader_layer.cell)
            + lateral(sink_layer.nx, sink_layer.ny);
        let mut net = ThermalNetwork::with_capacity(nodes, edges, sink_layer.cell_count());

        // Nodes.
        let silicon: Vec<NodeId> = grid
            .tiles()
            .map(|t| net.add_node(NodeKind::Silicon(t)))
            .collect();
        let interfaces: Vec<TileInterface> = grid
            .tiles()
            .map(|t| {
                let k = grid.linear_index(t);
                if splice_at[k].is_some() {
                    TileInterface::TwoPort(TwoPort {
                        lower: net.add_node(NodeKind::TwoPortLower(t)),
                        upper: net.add_node(NodeKind::TwoPortUpper(t)),
                    })
                } else {
                    TileInterface::Tim(net.add_node(NodeKind::Interface(t)))
                }
            })
            .collect();
        let spreader: Vec<NodeId> = (0..spreader_layer.cell_count())
            .map(|k| net.add_node(NodeKind::Spreader(k)))
            .collect();
        let sink: Vec<NodeId> = (0..sink_layer.cell_count())
            .map(|k| net.add_node(NodeKind::Sink(k)))
            .collect();

        // Die lateral conduction.
        let g_si_lat = die_layer.lateral_conductance();
        for t in grid.tiles() {
            let k = grid.linear_index(t);
            for n in grid.neighbors(t) {
                let kn = grid.linear_index(n);
                if kn > k {
                    net.add_conductance(silicon[k], silicon[kn], g_si_lat);
                }
            }
        }

        // TIM lateral conduction between plain TIM tiles only; two-port
        // elements are laterally isolated (the device sidewalls are narrow
        // and surrounded by underfill).
        let tim_lateral = net.conductances().len();
        let g_tim_lat = tim_layer.lateral_conductance();
        for t in grid.tiles() {
            let k = grid.linear_index(t);
            let TileInterface::Tim(a) = interfaces[k] else {
                continue;
            };
            for n in grid.neighbors(t) {
                let kn = grid.linear_index(n);
                if kn > k {
                    if let TileInterface::Tim(b) = interfaces[kn] {
                        net.add_conductance(a, b, g_tim_lat);
                    }
                }
            }
        }

        // Vertical: die <-> interface layer, interface <-> spreader.
        let die_half = die_layer.half_resistance(tile_area);
        let mut vertical = Vec::with_capacity(tiles + 1);
        let mut overlaps = Vec::with_capacity(tiles * tile_window);
        for t in grid.tiles() {
            let k = grid.linear_index(t);
            vertical.push(net.conductances().len());
            let rect = die_layer.cell_rect(t.row, t.col);
            let window = spreader_layer.cells_overlapping(&rect).map(|(cell, area)| {
                let overlap = Overlap {
                    area,
                    spreader_half: spreader_layer.half_resistance(area),
                };
                (spreader[cell], overlap)
            });
            match (interfaces[k], splice_at[k]) {
                (TileInterface::Tim(tim_id), _) => {
                    let r_si_tim = die_half + tim_layer.half_resistance(tile_area);
                    net.add_conductance(silicon[k], tim_id, 1.0 / r_si_tim);
                    for (cell, overlap) in window {
                        let r = tim_layer.half_resistance(overlap.area) + overlap.spreader_half;
                        net.add_conductance(tim_id, cell, 1.0 / r);
                        overlaps.push(overlap);
                    }
                }
                (TileInterface::TwoPort(tp), Some(spec)) => {
                    net.add_conductance(silicon[k], tp.lower, spec.lower_conductance(die_half));
                    // Lower <-> upper terminal: the device conductance.
                    net.add_conductance(tp.lower, tp.upper, spec.mid.value());
                    for (cell, overlap) in window {
                        net.add_conductance(
                            tp.upper,
                            cell,
                            spec.upper_conductance(&overlap, tile_area),
                        );
                        overlaps.push(overlap);
                    }
                }
                // `interfaces[k]` is `TwoPort` exactly when `splice_at[k]`
                // holds a spec.
                (TileInterface::TwoPort(_), None) => unreachable!("two-port tile without a spec"),
            }
        }
        vertical.push(net.conductances().len());

        // Spreader lateral.
        let g_sp_lat = spreader_layer.lateral_conductance();
        for iy in 0..spreader_layer.ny {
            for ix in 0..spreader_layer.nx {
                let k = spreader_layer.index(iy, ix);
                if ix + 1 < spreader_layer.nx {
                    net.add_conductance(
                        spreader[k],
                        spreader[spreader_layer.index(iy, ix + 1)],
                        g_sp_lat,
                    );
                }
                if iy + 1 < spreader_layer.ny {
                    net.add_conductance(
                        spreader[k],
                        spreader[spreader_layer.index(iy + 1, ix)],
                        g_sp_lat,
                    );
                }
            }
        }

        // Spreader <-> sink vertical, by overlap.
        for iy in 0..spreader_layer.ny {
            for ix in 0..spreader_layer.nx {
                let k = spreader_layer.index(iy, ix);
                let rect = spreader_layer.cell_rect(iy, ix);
                for (cell, a_ov) in sink_layer.cells_overlapping(&rect) {
                    let r = spreader_layer.half_resistance(a_ov) + sink_layer.half_resistance(a_ov);
                    net.add_conductance(spreader[k], sink[cell], 1.0 / r);
                }
            }
        }

        // Sink lateral.
        let g_sink_lat = sink_layer.lateral_conductance();
        for iy in 0..sink_layer.ny {
            for ix in 0..sink_layer.nx {
                let k = sink_layer.index(iy, ix);
                if ix + 1 < sink_layer.nx {
                    net.add_conductance(sink[k], sink[sink_layer.index(iy, ix + 1)], g_sink_lat);
                }
                if iy + 1 < sink_layer.ny {
                    net.add_conductance(sink[k], sink[sink_layer.index(iy + 1, ix)], g_sink_lat);
                }
            }
        }

        // Convection: the total resistance is distributed uniformly over the
        // sink area, g_cell = h · A_cell with h = 1 / (R_conv · A_sink).
        let sink_area = sink_side * sink_side;
        let h = 1.0 / (config.convection_resistance().value() * sink_area);
        let cell_area = sink_layer.cell * sink_layer.cell;
        let ambient_k = config.ambient().to_kelvin().value();
        let mut injection = vec![0.0; net.node_count()];
        for &id in &sink {
            let g = h * cell_area;
            net.add_ambient_conductance(id, g);
            injection[id.index()] = g * ambient_k;
        }

        Geometry {
            network: net,
            silicon,
            interfaces,
            spreader,
            sink,
            injection,
            tim_lateral,
            vertical,
            overlaps,
            die_half,
            tile_area,
        }
    }
}

/// The package's passive network, built from geometry once per built
/// [`PackageConfig`] and kept in it, with what a splice needs of the
/// geometry: where each TIM tile's stamps sit and each tile's overlap
/// with the spreader cells. It holds no [`CompactModel`] (nor anything
/// else holding the configuration), so the slot it lives in is never part
/// of a cycle of `Arc`s.
pub(crate) struct PassiveNetwork {
    network: Arc<ThermalNetwork>,
    g: Arc<CsrMatrix>,
    injection: Arc<[f64]>,
    tim_lateral: usize,
    vertical: Vec<usize>,
    overlaps: Vec<Overlap>,
    die_half: f64,
    tile_area: f64,
}

impl PassiveNetwork {
    /// The package's passive network, built and kept on first use.
    fn of(config: &PackageConfig) -> Result<&PassiveNetwork, ThermalError> {
        let slot = config.passive();
        if let Some(network) = slot.network() {
            return Ok(network);
        }
        let built = Geometry::stamp(config, &vec![None; config.grid().tile_count()], 0);
        built.network.validate_grounding()?;
        let g = built.network.assemble();
        Ok(slot.fill_network(PassiveNetwork {
            network: Arc::new(built.network),
            g: Arc::new(g),
            injection: built.injection.into(),
            tim_lateral: built.tim_lateral,
            vertical: built.vertical,
            overlaps: built.overlaps,
            die_half: built.die_half,
            tile_area: built.tile_area,
        }))
    }

    /// The passive model: this network, its `G` and its injection, shared.
    fn model(&self, config: &PackageConfig) -> CompactModel {
        let tiles = config.grid().tile_count();
        CompactModel::on_network(
            config,
            Arc::clone(&self.network),
            (tiles..2 * tiles)
                .map(|k| TileInterface::Tim(NodeId(k)))
                .collect(),
            Arc::clone(&self.injection),
            Arc::clone(&self.g),
        )
    }

    /// The model with a two-port on each tile `splice_at` gives a spec
    /// (`splices` of them), derived from this network.
    ///
    /// The stamps are written in the order the geometry writes them: the
    /// passive stamps renumbered, less each spliced tile's TIM laterals,
    /// with each spliced tile's vertical block replaced by its two-port's
    /// stamps, computed by the geometry's expressions on the kept overlaps.
    /// The renumbering is increasing (each spliced TIM node becomes its
    /// cold node, its hot node right after), so a row no changed stamp
    /// touches is the passive row renumbered, and only the touched rows
    /// are summed again ([`ThermalNetwork::assemble_reusing`]).
    fn splice(
        &self,
        config: &PackageConfig,
        splice_at: &[Option<TwoPortSpec>],
        splices: usize,
    ) -> Result<CompactModel, ThermalError> {
        let tiles = splice_at.len();
        let passive = &*self.network;
        let n = passive.node_count() + splices;
        // Each passive node's index in the spliced network.
        let mut placed = Vec::with_capacity(passive.node_count());
        let mut kinds = Vec::with_capacity(n);
        kinds.extend_from_slice(&passive.kinds()[..tiles]);
        placed.extend(0..tiles);
        let mut interfaces = Vec::with_capacity(tiles);
        for (t, spec) in config.grid().tiles().zip(splice_at) {
            let node = NodeId(kinds.len());
            placed.push(node.index());
            if spec.is_some() {
                kinds.extend([NodeKind::TwoPortLower(t), NodeKind::TwoPortUpper(t)]);
                interfaces.push(TileInterface::TwoPort(TwoPort {
                    lower: node,
                    upper: NodeId(node.index() + 1),
                }));
            } else {
                kinds.push(NodeKind::Interface(t));
                interfaces.push(TileInterface::Tim(node));
            }
        }
        placed.extend(2 * tiles + splices..n);
        kinds.extend_from_slice(&passive.kinds()[2 * tiles..]);

        // The stamps, and the rows a changed stamp touches.
        let stamps = passive.conductances();
        let renumber = |&(a, b, g): &(usize, usize, f64)| (placed[a], placed[b], g);
        let spliced = |node: usize| node >= tiles && splice_at[node - tiles].is_some();
        let mut touched = vec![false; n];
        let mut edges = Vec::with_capacity(stamps.len() + splices);
        edges.extend(stamps[..self.tim_lateral].iter().map(renumber));
        for stamp in &stamps[self.tim_lateral..self.vertical[0]] {
            let (a, b, _) = renumber(stamp);
            if spliced(stamp.0) || spliced(stamp.1) {
                touched[a] = true;
                touched[b] = true;
            } else {
                edges.push(renumber(stamp));
            }
        }
        for (k, spec) in splice_at.iter().enumerate() {
            let block = &stamps[self.vertical[k]..self.vertical[k + 1]];
            let Some(spec) = spec else {
                edges.extend(block.iter().map(renumber));
                continue;
            };
            let (lower, upper) = (placed[tiles + k], placed[tiles + k] + 1);
            // The block's overlaps: each tile before `k` has one stamp that
            // is not an overlap.
            let first = self.vertical[k] - self.vertical[0] - k;
            let overlaps = &self.overlaps[first..first + block.len() - 1];
            edges.push((k, lower, spec.lower_conductance(self.die_half)));
            edges.push((lower, upper, spec.mid.value()));
            for (&(_, cell, _), overlap) in block[1..].iter().zip(overlaps) {
                let cell = placed[cell];
                edges.push((upper, cell, spec.upper_conductance(overlap, self.tile_area)));
                touched[cell] = true;
            }
            touched[k] = true;
            touched[lower] = true;
            touched[upper] = true;
        }
        edges.extend(stamps[self.vertical[tiles]..].iter().map(renumber));
        let legs = passive
            .ambient_legs()
            .iter()
            .map(|&(p, g)| (placed[p], g))
            .collect();
        let mut injection = vec![0.0; n];
        for (&p, &v) in placed.iter().zip(self.injection.iter()) {
            injection[p] = v;
        }
        let network = ThermalNetwork::from_parts(kinds, edges, legs);
        network.validate_grounding()?;

        let mut rows = vec![None; n];
        for (p, &r) in placed.iter().enumerate() {
            if !touched[r] {
                rows[r] = Some(p);
            }
        }
        let g = network.assemble_reusing(Reuse {
            base: &self.g,
            rows: &rows,
            columns: &placed,
        });
        Ok(CompactModel::on_network(
            config,
            Arc::new(network),
            interfaces,
            injection.into(),
            Arc::new(g),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_units::Meters;

    fn small_config() -> PackageConfig {
        PackageConfig::hotspot41_like(4, 4).unwrap()
    }

    fn spec() -> TwoPortSpec {
        // Thin-film-TEC-like passive conductances: the through-path
        // (0.02 ∥ 0.01 ∥ 0.02 in series ≈ 0.005 W/K) conducts *worse* than
        // the 100 µm TIM tile it replaces (≈ 0.01 W/K), as in Chowdhury's
        // in-package measurements.
        TwoPortSpec {
            lower_contact: WattsPerKelvin(0.02),
            mid: WattsPerKelvin(0.01),
            upper_contact: WattsPerKelvin(0.02),
        }
    }

    #[test]
    fn passive_model_satisfies_lemma1() {
        let model = CompactModel::new(&small_config()).unwrap();
        model.validate().unwrap();
    }

    #[test]
    fn model_with_two_ports_satisfies_lemma1() {
        let cfg = small_config();
        let splices = vec![
            (TileIndex::new(0, 0), spec()),
            (TileIndex::new(1, 2), spec()),
        ];
        let model = CompactModel::with_two_ports(&cfg, &splices).unwrap();
        model.validate().unwrap();
        assert_eq!(model.two_ports().len(), 2);
        // Two extra nodes per splice relative to the passive model.
        let passive = CompactModel::new(&cfg).unwrap();
        assert_eq!(model.node_count(), passive.node_count() + 2);
    }

    #[test]
    fn zero_power_gives_ambient_everywhere() {
        let cfg = small_config();
        let model = CompactModel::new(&cfg).unwrap();
        let temps = model
            .solve_passive(&vec![Watts(0.0); cfg.grid().tile_count()])
            .unwrap();
        let amb = cfg.ambient().to_kelvin();
        for t in &temps {
            assert!((t.value() - amb.value()).abs() < 1e-6, "{t:?} != ambient");
        }
    }

    #[test]
    fn heating_raises_heated_tile_most() {
        let cfg = small_config();
        let model = CompactModel::new(&cfg).unwrap();
        let mut p = vec![Watts(0.0); 16];
        p[5] = Watts(1.0); // tile (1,1)
        let temps = model.solve_passive(&p).unwrap();
        let sil = model.silicon_temperatures(&temps);
        let hottest = sil
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(hottest, 5);
        assert_eq!(model.peak_silicon_temperature(&temps), sil[5]);
        // Everything is above ambient (inverse positivity of G).
        for t in &sil {
            assert!(*t > cfg.ambient());
        }
    }

    #[test]
    fn superposition_holds() {
        // The model is linear: theta(p1 + p2) - theta(0) =
        // (theta(p1) - theta(0)) + (theta(p2) - theta(0)).
        let cfg = small_config();
        let model = CompactModel::new(&cfg).unwrap();
        let mut p1 = vec![Watts(0.0); 16];
        p1[3] = Watts(0.7);
        let mut p2 = vec![Watts(0.0); 16];
        p2[12] = Watts(0.4);
        let both: Vec<Watts> = p1.iter().zip(&p2).map(|(a, b)| *a + *b).collect();
        let t0 = cfg.ambient().to_kelvin().value();
        let ta = model.solve_passive(&p1).unwrap();
        let tb = model.solve_passive(&p2).unwrap();
        let tc = model.solve_passive(&both).unwrap();
        for k in 0..model.node_count() {
            let lhs = tc[k].value() - t0;
            let rhs = (ta[k].value() - t0) + (tb[k].value() - t0);
            assert!((lhs - rhs).abs() < 1e-8);
        }
    }

    #[test]
    fn energy_balance_total_rise_matches_convection() {
        // In steady state all dissipated power leaves through convection:
        // sum over sink cells of g_conv * (T_cell - T_amb) = total power.
        let cfg = small_config();
        let model = CompactModel::new(&cfg).unwrap();
        let p = vec![Watts(0.25); 16]; // 4 W total
        let temps = model.solve_passive(&p).unwrap();
        let amb = cfg.ambient().to_kelvin().value();
        let mut out = 0.0;
        for &(idx, g) in model.network().ambient_legs() {
            out += g * (temps[idx].value() - amb);
        }
        assert!((out - 4.0).abs() < 1e-8, "convected power {out} != 4.0");
    }

    #[test]
    fn two_port_insulation_heats_die_when_mid_conductance_small() {
        // Replacing TIM with a poorly conducting (passive) two-port should
        // raise the covered tile's temperature: the TEC with zero current is
        // an insulator relative to TIM.
        let cfg = small_config();
        let mut p = vec![Watts(0.0); 16];
        p[5] = Watts(0.6);
        let plain = CompactModel::new(&cfg).unwrap();
        let t_plain = plain.solve_passive(&p).unwrap();
        let spliced =
            CompactModel::with_two_ports(&cfg, &[(TileIndex::new(1, 1), spec())]).unwrap();
        let t_spliced = spliced.solve_passive(&p).unwrap();
        let peak_plain = plain.peak_silicon_temperature(&t_plain);
        let peak_spliced = spliced.peak_silicon_temperature(&t_spliced);
        assert!(
            peak_spliced > peak_plain,
            "passive TEC should insulate: {peak_spliced:?} vs {peak_plain:?}"
        );
    }

    #[test]
    fn splice_errors() {
        let cfg = small_config();
        let t = TileIndex::new(0, 0);
        let bad = TwoPortSpec {
            lower_contact: WattsPerKelvin(0.0),
            mid: WattsPerKelvin(0.04),
            upper_contact: WattsPerKelvin(0.5),
        };
        let cases = [
            vec![(TileIndex::new(9, 9), spec())],
            vec![(t, spec()), (t, spec())],
            vec![(t, bad)],
            // The first fault in splice order is the one reported.
            vec![(t, spec()), (t, bad), (TileIndex::new(9, 9), spec())],
        ];
        let errors: Vec<ThermalError> = cases
            .iter()
            .map(|splices| {
                let err = CompactModel::with_two_ports(&cfg, splices).unwrap_err();
                // The geometric oracle reports the same error.
                let oracle = CompactModel::from_geometry(&cfg, splices).unwrap_err();
                assert_eq!(format!("{err:?}"), format!("{oracle:?}"));
                err
            })
            .collect();
        assert!(matches!(errors[0], ThermalError::TileOutOfBounds { .. }));
        assert!(matches!(errors[1], ThermalError::DuplicateTwoPort { .. }));
        assert!(matches!(errors[2], ThermalError::InvalidConfig(_)));
        assert!(matches!(errors[3], ThermalError::InvalidConfig(_)));
    }

    #[test]
    fn power_vector_errors_on_wrong_length() {
        let model = CompactModel::new(&small_config()).unwrap();
        assert!(matches!(
            model.power_vector(&[Watts(1.0)]),
            Err(ThermalError::PowerLengthMismatch {
                expected: 16,
                actual: 1
            })
        ));
    }

    #[test]
    fn silicon_node_lookup() {
        let model = CompactModel::new(&small_config()).unwrap();
        let id = model.silicon_node(TileIndex::new(2, 3)).unwrap();
        assert_eq!(
            model.network().kind(id),
            NodeKind::Silicon(TileIndex::new(2, 3))
        );
        assert!(model.silicon_node(TileIndex::new(4, 0)).is_err());
    }

    #[test]
    fn non_square_die_supported() {
        let grid = crate::TileGrid::new(3, 6, Meters::from_millimeters(0.5)).unwrap();
        let cfg = PackageConfig::builder(grid).build().unwrap();
        let model = CompactModel::new(&cfg).unwrap();
        model.validate().unwrap();
        let temps = model.solve_passive(&[Watts(0.1); 18]).unwrap();
        assert_eq!(model.silicon_temperatures(&temps).len(), 18);
    }

    #[test]
    fn uniform_power_gives_near_uniform_die_map() {
        // The die is tiny compared to the spreader/sink, so under uniform
        // power the tile-to-tile variation is far below the mean rise.
        let cfg = PackageConfig::hotspot41_like(5, 5).unwrap();
        let model = CompactModel::new(&cfg).unwrap();
        let temps = model.solve_passive(&[Watts(0.2); 25]).unwrap();
        let sil = model.silicon_temperatures(&temps);
        let max = sil.iter().copied().fold(Celsius(f64::MIN), Celsius::max);
        let min = sil.iter().copied().fold(Celsius(f64::MAX), Celsius::min);
        assert!((max - min).value() < 0.5, "spread {:?}", max - min);
        assert!(max > cfg.ambient());
    }

    #[test]
    fn hotspot_decays_with_distance() {
        let cfg = PackageConfig::hotspot41_like(5, 5).unwrap();
        let model = CompactModel::new(&cfg).unwrap();
        let mut p = vec![Watts(0.0); 25];
        p[12] = Watts(1.0); // center (2,2)
        let temps = model.solve_passive(&p).unwrap();
        let sil = model.silicon_temperatures(&temps);
        // Along row 2, temperature decreases monotonically away from col 2.
        assert!(sil[12] > sil[11] && sil[11] > sil[10]);
        assert!(sil[12] > sil[13] && sil[13] > sil[14]);
    }
}
