use std::sync::{Arc, OnceLock};

use crate::geometry::LayerGrid;
use crate::{NodeId, NodeKind, PackageConfig, ThermalError, ThermalNetwork, TileIndex};
use tecopt_linalg::{Cholesky, CholeskyPattern, CsrMatrix};
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
/// Construction dissects every layer into cells (Sec. IV.A of the paper),
/// stamps lateral and vertical conductances, eliminates the ambient node and
/// assembles the conductance matrix `G` straight into CSR (at a 12×12-tile
/// package `G` has n = 536 rows and 1.2 % nonzeros). The model is immutable
/// after construction: deployments with different TEC tile sets build fresh
/// models.
///
/// The model also owns the network's [`CholeskyPattern`]: analysed on the
/// first factorization ([`CompactModel::cholesky_pattern`]) and shared by
/// every clone, so the fill-reducing ordering costs once per network however
/// many solvers, transient steppers and passive solves factor its `G − i·D`
/// or `C/Δt + G − i·D`.
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
    network: ThermalNetwork,
    silicon: Vec<NodeId>,
    interfaces: Vec<TileInterface>,
    spreader: Vec<NodeId>,
    sink: Vec<NodeId>,
    /// Ambient-elimination power injection per node (W).
    injection: Vec<f64>,
    /// Immutable once assembled, so clones of the model share it.
    g: Arc<CsrMatrix>,
    /// The Cholesky pattern of `G`, analysed on first use. The slot itself
    /// is shared, so a clone made before the analysis still sees it.
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
    /// # Errors
    ///
    /// - [`ThermalError::TileOutOfBounds`] for a splice outside the grid.
    /// - [`ThermalError::DuplicateTwoPort`] if a tile is listed twice.
    /// - [`ThermalError::InvalidConfig`] for nonpositive spec conductances.
    pub fn with_two_ports(
        config: &PackageConfig,
        splices: &[(TileIndex, TwoPortSpec)],
    ) -> Result<CompactModel, ThermalError> {
        let grid = config.grid();
        let rows = grid.rows();
        let cols = grid.cols();
        let tile = grid.tile_size().value();
        let tile_area = tile * tile;

        // Which tiles are spliced, by linear index.
        let mut splice_at: Vec<Option<TwoPortSpec>> = vec![None; grid.tile_count()];
        for (t, spec) in splices {
            if !grid.contains(*t) {
                return Err(ThermalError::TileOutOfBounds {
                    row: t.row,
                    col: t.col,
                    rows,
                    cols,
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

        let mut net = ThermalNetwork::new();

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
        for t in grid.tiles() {
            let k = grid.linear_index(t);
            let rect = die_layer.cell_rect(t.row, t.col);
            match interfaces[k] {
                TileInterface::Tim(tim_id) => {
                    let r_si_tim =
                        die_layer.half_resistance(tile_area) + tim_layer.half_resistance(tile_area);
                    net.add_conductance(silicon[k], tim_id, 1.0 / r_si_tim);
                    for (cell, a_ov) in spreader_layer.cells_overlapping(&rect) {
                        let r =
                            tim_layer.half_resistance(a_ov) + spreader_layer.half_resistance(a_ov);
                        net.add_conductance(tim_id, spreader[cell], 1.0 / r);
                    }
                }
                TileInterface::TwoPort(tp) => {
                    // `interfaces[k]` is `TwoPort` exactly when the builder
                    // recorded a spec for tile `k` in `splice_at`.
                    #[allow(clippy::expect_used)]
                    let spec = splice_at[k].expect("two-port tile has a spec");
                    // Die tile -> lower terminal: half die thickness in
                    // series with the lower contact.
                    let r_lower =
                        die_layer.half_resistance(tile_area) + 1.0 / spec.lower_contact.value();
                    net.add_conductance(silicon[k], tp.lower, 1.0 / r_lower);
                    // Lower <-> upper terminal: the device conductance.
                    net.add_conductance(tp.lower, tp.upper, spec.mid.value());
                    // Upper terminal -> spreader cells: contact conductance
                    // apportioned by overlap, in series with the spreader
                    // half thickness.
                    for (cell, a_ov) in spreader_layer.cells_overlapping(&rect) {
                        let g_contact = spec.upper_contact.value() * (a_ov / tile_area);
                        let r = 1.0 / g_contact + spreader_layer.half_resistance(a_ov);
                        net.add_conductance(tp.upper, spreader[cell], 1.0 / r);
                    }
                }
            }
        }

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

        net.validate_grounding()?;
        let g = net.assemble();

        Ok(CompactModel {
            config: config.clone(),
            network: net,
            silicon,
            interfaces,
            spreader,
            sink,
            injection,
            g: Arc::new(g),
            pattern: Arc::new(OnceLock::new()),
        })
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
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] if the analysis fails (it cannot for an
    /// assembled model: `G` is square).
    pub fn cholesky_pattern(&self) -> Result<&Arc<CholeskyPattern>, ThermalError> {
        if let Some(p) = self.pattern.get() {
            return Ok(p);
        }
        let analysed = Arc::new(CholeskyPattern::analyse_csr(&self.g).map_err(ThermalError::from)?);
        // A racing first call may have won; either analysis is the same.
        Ok(self.pattern.get_or_init(|| analysed))
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
        let mut p = self.injection.clone();
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
        let oob = CompactModel::with_two_ports(&cfg, &[(TileIndex::new(9, 9), spec())]);
        assert!(matches!(oob, Err(ThermalError::TileOutOfBounds { .. })));
        let dup = CompactModel::with_two_ports(
            &cfg,
            &[
                (TileIndex::new(0, 0), spec()),
                (TileIndex::new(0, 0), spec()),
            ],
        );
        assert!(matches!(dup, Err(ThermalError::DuplicateTwoPort { .. })));
        let bad = CompactModel::with_two_ports(
            &cfg,
            &[(
                TileIndex::new(0, 0),
                TwoPortSpec {
                    lower_contact: WattsPerKelvin(0.0),
                    mid: WattsPerKelvin(0.04),
                    upper_contact: WattsPerKelvin(0.5),
                },
            )],
        );
        assert!(matches!(bad, Err(ThermalError::InvalidConfig(_))));
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
