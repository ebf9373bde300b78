//! Stamping TEC devices into the compact thermal network.
//!
//! This module realizes Sec. IV.B–C of the paper: every deployed device
//! replaces its tile's TIM node with a cold/hot node pair (the passive part,
//! delegated to [`CompactModel::with_two_ports`]), and contributes the
//! *active* terms of Eq. 4–5:
//!
//! - the diagonal Peltier matrix `D` with `+α` at hot nodes and `−α` at cold
//!   nodes, so that `(G − i·D)` gains `+α·i` at cold nodes (heat absorption)
//!   and `−α·i` at hot nodes (heat release), and
//! - Joule sources `r·i²/2` at both nodes of every device in the power
//!   vector `p(i)`.

use std::sync::{Arc, OnceLock};

use crate::{DeviceError, TecParams};
use tecopt_linalg::{CsrMatrix, DenseMatrix, FactorPlan, LinalgError, ShiftedCholesky};
use tecopt_thermal::{CompactModel, PackageConfig, ThermalError, TileIndex};
use tecopt_units::{Amperes, Kelvin, Watts};

/// A compact thermal model with a set of TEC devices stamped in: the
/// `(G, D, p(i))` triple of the paper's Eq. 4, ready for the optimization
/// layer.
///
/// ```
/// use tecopt_device::{StampedSystem, TecParams};
/// use tecopt_thermal::{PackageConfig, TileIndex};
/// use tecopt_units::{Amperes, Watts};
///
/// # fn main() -> Result<(), tecopt_device::DeviceError> {
/// let config = PackageConfig::hotspot41_like(4, 4)?;
/// let system = StampedSystem::new(
///     &config,
///     TecParams::superlattice_thin_film(),
///     &[TileIndex::new(1, 1)],
/// )?;
/// let m = system.system_matrix(Amperes(2.0))?;
/// assert_eq!(m.rows(), system.model().node_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StampedSystem {
    model: CompactModel,
    params: TecParams,
    tiles: Vec<TileIndex>,
    /// Diagonal of `D`: `+α` at hot (upper) nodes, `−α` at cold (lower).
    d_diagonal: Vec<f64>,
    /// Node indices receiving `r·i²/2` Joule sources (hot and cold of every
    /// device).
    joule_nodes: Vec<usize>,
    /// `(cold, hot)` node indices per deployed tile, in `tiles` order.
    junctions: Vec<(usize, usize)>,
    /// The placement's factorization of `G − i·D`, built on first use.
    /// The slot itself is shared, so a clone made before the build still
    /// sees it.
    placement: Arc<OnceLock<Arc<ShiftedCholesky>>>,
}

impl StampedSystem {
    /// Builds the package model with TEC devices on the given tiles.
    ///
    /// An empty `tiles` slice yields the passive system (`D = 0`), which the
    /// deployment algorithm uses as its starting point.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalError`]s from model assembly (out-of-bounds or
    /// duplicate tiles, invalid conductances).
    pub fn new(
        config: &PackageConfig,
        params: TecParams,
        tiles: &[TileIndex],
    ) -> Result<StampedSystem, DeviceError> {
        let spec = params.two_port_spec();
        let splices: Vec<(TileIndex, _)> = tiles.iter().map(|t| (*t, spec)).collect();
        let model = CompactModel::with_two_ports(config, &splices)?;
        let n = model.node_count();
        let mut d_diagonal = vec![0.0; n];
        let mut joule_nodes = Vec::with_capacity(2 * tiles.len());
        let mut junctions = Vec::with_capacity(tiles.len());
        let alpha = params.seebeck().value();
        // `two_ports()` returns tiles in grid order; re-key by tile so the
        // `junctions` vector matches the caller's `tiles` order.
        let by_tile: std::collections::HashMap<TileIndex, _> =
            model.two_ports().into_iter().collect();
        for t in tiles {
            let tp = by_tile[t];
            let cold = tp.lower.index();
            let hot = tp.upper.index();
            d_diagonal[hot] = alpha;
            d_diagonal[cold] = -alpha;
            joule_nodes.push(cold);
            joule_nodes.push(hot);
            junctions.push((cold, hot));
        }
        Ok(StampedSystem {
            model,
            params,
            tiles: tiles.to_vec(),
            d_diagonal,
            joule_nodes,
            junctions,
            placement: Arc::new(OnceLock::new()),
        })
    }

    /// The placement's factorization of the family `G − i·D`
    /// ([`ShiftedCholesky`]), with the junction nodes as the support of
    /// `D`: built on the first call and shared by every clone. The runaway
    /// search and every steady solve of the default backend factor through
    /// it, so `G_AA` (the Peltier-free block) is factored once per
    /// placement, and analysed on the package's passive order
    /// ([`CompactModel::network_order`]) rather than by a minimum-degree
    /// search of its own. The Joule sources sit on the same nodes, so the
    /// part of a solve off the support does not depend on the current.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Thermal`] if `G_AA` is not positive definite (it is
    /// for an assembled package) or the network's analysis fails.
    pub fn placement_factor(&self) -> Result<&Arc<ShiftedCholesky>, DeviceError> {
        if let Some(f) = self.placement.get() {
            return Ok(f);
        }
        let support: Vec<usize> = self
            .junctions
            .iter()
            .flat_map(|&(cold, hot)| [cold, hot])
            .collect();
        let order = self.model.network_order()?;
        let built = ShiftedCholesky::with_order(
            self.model.g_matrix(),
            &self.d_diagonal,
            &support,
            &order,
            || {
                self.model
                    .cholesky_pattern()
                    .map(Arc::clone)
                    .map_err(|e| match e {
                        ThermalError::Linalg(e) => e,
                        other => LinalgError::InvalidInput(other.to_string()),
                    })
            },
        )
        .map_err(ThermalError::from)?;
        // A racing first call may have won; either build is the same.
        Ok(self.placement.get_or_init(|| Arc::new(built)))
    }

    /// The plan of [`StampedSystem::placement_factor`] if it has been
    /// built, without building it.
    pub fn placement_plan(&self) -> Option<FactorPlan> {
        self.placement.get().map(|f| f.plan())
    }

    /// The underlying compact model (provides `G` and node metadata).
    pub fn model(&self) -> &CompactModel {
        &self.model
    }

    /// Device parameters shared by all deployed TECs.
    pub fn params(&self) -> &TecParams {
        &self.params
    }

    /// Tiles covered by TEC devices, in deployment order.
    pub fn tiles(&self) -> &[TileIndex] {
        &self.tiles
    }

    /// Number of deployed devices (`#TECs` of Table I).
    pub fn device_count(&self) -> usize {
        self.tiles.len()
    }

    /// Diagonal of the Peltier matrix `D` (Eq. 5).
    pub fn d_diagonal(&self) -> &[f64] {
        &self.d_diagonal
    }

    /// Node indices carrying Joule sources (`HOT ∪ CLD` of the paper).
    pub fn joule_nodes(&self) -> &[usize] {
        &self.joule_nodes
    }

    /// `(cold, hot)` node index pairs per device, in `tiles()` order.
    pub fn junctions(&self) -> &[(usize, usize)] {
        &self.junctions
    }

    /// The system matrix `G − i·D` as a dense `n×n` matrix, for the dense
    /// oracles and callers that want one. The
    /// solve paths use [`StampedSystem::sparse_system_matrix`] or a
    /// [`SolveWorkspace`]; all three hold bit-identical values.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NegativeCurrent`] for `i < 0`.
    pub fn system_matrix(&self, current: Amperes) -> Result<DenseMatrix, DeviceError> {
        let i = nonnegative(current)?;
        let mut m = self.model.g_matrix().to_dense();
        m.add_scaled_diagonal(&self.d_diagonal, -i)
            .map_err(ThermalError::from)?;
        Ok(m)
    }

    /// The system matrix `G − i·D` in CSR, with the structure of `G` (so
    /// it factors on the model's Cholesky pattern).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NegativeCurrent`] for `i < 0`.
    pub fn sparse_system_matrix(&self, current: Amperes) -> Result<CsrMatrix, DeviceError> {
        let i = nonnegative(current)?;
        let mut m = self.model.g_matrix().clone();
        m.add_scaled_diagonal(&self.d_diagonal, -i)
            .map_err(ThermalError::from)?;
        Ok(m)
    }

    /// The power vector `p(i)`: ambient injection, silicon dissipation, and
    /// `r·i²/2` at every device junction.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NegativeCurrent`] for `i < 0` and propagates
    /// power-length mismatches.
    pub fn power_vector(
        &self,
        silicon_powers: &[Watts],
        current: Amperes,
    ) -> Result<Vec<f64>, DeviceError> {
        let i = nonnegative(current)?;
        let mut p = self.model.power_vector(silicon_powers)?;
        let joule = 0.5 * self.params.resistance().value() * i * i;
        for &k in &self.joule_nodes {
            p[k] += joule;
        }
        Ok(p)
    }

    /// Builds a reusable solve workspace for this system and power profile.
    ///
    /// The workspace copies the CSR `G` (`O(nnz)`) and the base power
    /// vector `p(0)` **once**, and records where each diagonal entry `D`
    /// touches is stored. Every later operating point overwrites those few
    /// values and the Joule entries of `p` in place: `O(#devices)` per
    /// probe, where [`StampedSystem::system_matrix`] pays `O(n²)`. The
    /// matrix keeps the structure of `G`, so the sparse Cholesky factors it
    /// on the model's pattern after one `O(nnz)` structure check. This is
    /// what makes current sweeps (λ_m bisection, golden section, designer
    /// candidate evaluation) allocation-free between probes, up to the
    /// factor itself.
    ///
    /// # Errors
    ///
    /// Propagates power-length mismatches from the thermal layer.
    pub fn solve_workspace(&self, silicon_powers: &[Watts]) -> Result<SolveWorkspace, DeviceError> {
        let matrix = self.model.g_matrix().clone();
        let base_power = self.model.power_vector(silicon_powers)?;
        // Only nodes with a nonzero D entry ever change in the matrix; the
        // assembly stores every diagonal, so each has a slot.
        let mut shift_nodes = Vec::new();
        let mut shift_slots = Vec::new();
        for (k, _) in self
            .d_diagonal
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != 0.0)
        {
            let slot = matrix.diagonal_offset(k).ok_or_else(|| {
                ThermalError::InvalidConfig(format!("G stores no diagonal entry at node {k}"))
            })?;
            shift_nodes.push(k);
            shift_slots.push(slot);
        }
        let base_diag: Vec<f64> = shift_slots.iter().map(|&t| matrix.values()[t]).collect();
        let shift_d: Vec<f64> = shift_nodes.iter().map(|&k| self.d_diagonal[k]).collect();
        let power = base_power.clone();
        Ok(SolveWorkspace {
            matrix,
            shift_slots,
            base_diag,
            shift_nodes,
            shift_d,
            base_power,
            power,
            joule_nodes: self.joule_nodes.clone(),
            half_resistance: 0.5 * self.params.resistance().value(),
            current: 0.0,
        })
    }

    /// The rank-k structure of the placement: which nodes the deployed
    /// devices perturb and by how much per ampere — `A(i) = G + Σ_k
    /// (−i·d_k)·e_k·e_kᵀ` over exactly these nodes. This is the handle the
    /// solver layer feeds to `tecopt_linalg::UpdatableFactor` so that
    /// retargeting the supply current costs a rank-k correction instead of
    /// a fresh factorization.
    pub fn placement_delta(&self) -> PlacementDelta {
        let (nodes, per_ampere): (Vec<usize>, Vec<f64>) = self
            .d_diagonal
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != 0.0)
            .map(|(k, &d)| (k, d))
            .unzip();
        PlacementDelta { nodes, per_ampere }
    }

    /// Total electrical input power of the deployed devices given a solved
    /// temperature field: `Σ (r·i² + α·i·(θ_hot − θ_cold))` (Eq. 3) — the
    /// `P_TEC` column of Table I.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NegativeCurrent`] for `i < 0`.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not cover all nodes.
    pub fn input_power(&self, temps: &[Kelvin], current: Amperes) -> Result<Watts, DeviceError> {
        assert!(
            temps.len() == self.model.node_count(),
            "temperature vector length"
        );
        let i = nonnegative(current)?;
        let r = self.params.resistance().value();
        let a = self.params.seebeck().value();
        let mut total = 0.0;
        for &(cold, hot) in &self.junctions {
            let delta = temps[hot].value() - temps[cold].value();
            total += r * i * i + a * i * delta;
        }
        Ok(Watts(total))
    }
}

/// A preassembled `(G − i·D, p(i))` pair, the matrix in CSR with the
/// structure of `G`, that is retargeted to a new supply current in
/// `O(#devices)` — see [`StampedSystem::solve_workspace`]. A clone costs
/// `O(nnz)`.
///
/// The matrix produced for a given current is bit-identical to the one
/// [`StampedSystem::system_matrix`] assembles from scratch, so solver
/// results are unchanged; only the per-probe cost drops.
#[derive(Debug, Clone)]
pub struct SolveWorkspace {
    matrix: CsrMatrix,
    /// Offsets of the diagonal entries at `shift_nodes` in the CSR values.
    shift_slots: Vec<usize>,
    /// Unshifted `G` diagonal values at `shift_nodes`, in the same order.
    base_diag: Vec<f64>,
    /// Nodes where `D` is nonzero (hot/cold junctions).
    shift_nodes: Vec<usize>,
    /// `D` values at `shift_nodes`.
    shift_d: Vec<f64>,
    /// `p(0)`: ambient injection plus silicon dissipation.
    base_power: Vec<f64>,
    /// `p(i)` for the current operating point.
    power: Vec<f64>,
    joule_nodes: Vec<usize>,
    half_resistance: f64,
    current: f64,
}

impl SolveWorkspace {
    /// Retargets the workspace to supply current `i`: overwrites the shifted
    /// diagonal entries with `g_kk − i·d_k` and rebuilds the Joule terms of
    /// `p(i)` from the base power vector.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NegativeCurrent`] for a negative or non-finite
    /// current (the workspace is left at its previous operating point).
    pub fn set_current(&mut self, current: Amperes) -> Result<(), DeviceError> {
        let i = nonnegative(current)?;
        let values = self.matrix.values_mut();
        for ((&slot, &g_kk), &d_k) in self
            .shift_slots
            .iter()
            .zip(&self.base_diag)
            .zip(&self.shift_d)
        {
            values[slot] = g_kk - i * d_k;
        }
        self.power.copy_from_slice(&self.base_power);
        let joule = self.half_resistance * i * i;
        for &k in &self.joule_nodes {
            self.power[k] += joule;
        }
        self.current = i;
        Ok(())
    }

    /// The system matrix `G − i·D` at the last-set current, in CSR with
    /// the structure of `G`.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The power vector `p(i)` at the last-set current.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// The current the workspace is presently stamped for.
    pub fn current(&self) -> Amperes {
        Amperes(self.current)
    }

    /// Matrix dimension (node count).
    pub fn dim(&self) -> usize {
        self.matrix.rows()
    }

    /// The placement's rank-k structure as seen by this workspace — same
    /// data as [`StampedSystem::placement_delta`], recoverable without the
    /// stamped system in hand.
    pub fn placement_delta(&self) -> PlacementDelta {
        PlacementDelta {
            nodes: self.shift_nodes.clone(),
            per_ampere: self.shift_d.clone(),
        }
    }

    /// FNV-1a fingerprint of the *structure* this workspace assembles:
    /// dimension, shifted nodes, their `D` values, and the unshifted base
    /// diagonal. Two workspaces with equal fingerprints stamp the same
    /// matrix family `i ↦ G − i·D` (up to the off-diagonal entries, which
    /// are fixed by the model the workspace was built from); two different
    /// placements virtually always differ. Solver caches fold this into
    /// their key so a factor produced for one matrix lineage can never be
    /// replayed for another — see the PR-7 cache-poisoning regression
    /// tests.
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bits: u64| {
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.matrix.rows() as u64);
        eat(self.shift_nodes.len() as u64);
        for &k in &self.shift_nodes {
            eat(k as u64);
        }
        for &d in &self.shift_d {
            eat(d.to_bits());
        }
        for &g in &self.base_diag {
            eat(g.to_bits());
        }
        h
    }
}

/// The structured rank-k perturbation a TEC placement induces on the
/// passive conductance matrix `G`.
///
/// A placement touches only its junction nodes: at supply current `i` the
/// system matrix is `G + Σ_k δ_k(i)·e_k·e_kᵀ` with `δ_k(i) = −i·d_k` (Eq. 4
/// restricted to the nonzero support of `D`). [`PlacementDelta::deltas_at`]
/// materializes the `(node, δ)` pairs for one operating point in the exact
/// form `tecopt_linalg::DiagonalUpdate` consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDelta {
    /// Junction nodes in ascending order.
    nodes: Vec<usize>,
    /// `D` diagonal values at `nodes`: `+α` hot, `−α` cold.
    per_ampere: Vec<f64>,
}

impl PlacementDelta {
    /// The perturbed nodes (ascending: the nonzero support of `D`).
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Rank of the perturbation (`2 × #devices`).
    pub fn rank(&self) -> usize {
        self.nodes.len()
    }

    /// `D` values per node: the per-ampere diagonal shift is `−d_k`.
    pub fn per_ampere(&self) -> &[f64] {
        &self.per_ampere
    }

    /// The `(node, δ_k)` pairs at supply current `i`: `δ_k = −i·d_k`,
    /// relative to the passive matrix `G`.
    pub fn deltas_at(&self, current: Amperes) -> Vec<(usize, f64)> {
        let i = current.value();
        self.nodes
            .iter()
            .zip(&self.per_ampere)
            .map(|(&k, &d)| (k, -i * d))
            .collect()
    }
}

fn nonnegative(current: Amperes) -> Result<f64, DeviceError> {
    let i = current.value();
    if i < 0.0 || !i.is_finite() {
        return Err(DeviceError::NegativeCurrent { value: i });
    }
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_linalg::Cholesky;

    fn config() -> PackageConfig {
        PackageConfig::hotspot41_like(4, 4).unwrap()
    }

    fn system(tiles: &[TileIndex]) -> StampedSystem {
        StampedSystem::new(&config(), TecParams::superlattice_thin_film(), tiles).unwrap()
    }

    #[test]
    fn passive_system_has_zero_d() {
        let s = system(&[]);
        assert_eq!(s.device_count(), 0);
        assert!(s.d_diagonal().iter().all(|&x| x == 0.0));
        assert!(s.joule_nodes().is_empty());
        let m = s.system_matrix(Amperes(10.0)).unwrap();
        assert_eq!(m, s.model().g_matrix().to_dense());
    }

    #[test]
    fn d_has_signed_alpha_at_junctions() {
        let tiles = [TileIndex::new(0, 0), TileIndex::new(2, 3)];
        let s = system(&tiles);
        let alpha = s.params().seebeck().value();
        assert_eq!(s.device_count(), 2);
        assert_eq!(s.junctions().len(), 2);
        let nonzero: Vec<f64> = s
            .d_diagonal()
            .iter()
            .copied()
            .filter(|&x| x != 0.0)
            .collect();
        assert_eq!(nonzero.len(), 4);
        for &(cold, hot) in s.junctions() {
            assert_eq!(s.d_diagonal()[cold], -alpha);
            assert_eq!(s.d_diagonal()[hot], alpha);
        }
    }

    #[test]
    fn joule_power_enters_both_junction_nodes() {
        let s = system(&[TileIndex::new(1, 1)]);
        let powers = vec![Watts(0.0); 16];
        let i = Amperes(4.0);
        let p0 = s.power_vector(&powers, Amperes(0.0)).unwrap();
        let p4 = s.power_vector(&powers, i).unwrap();
        let joule = 0.5 * s.params().resistance().value() * 16.0;
        let mut diffs = 0;
        for k in 0..p0.len() {
            let d = p4[k] - p0[k];
            if d != 0.0 {
                assert!((d - joule).abs() < 1e-15);
                diffs += 1;
            }
        }
        assert_eq!(diffs, 2);
    }

    #[test]
    fn moderate_current_cools_the_covered_tile() {
        // End-to-end sanity: solving (G - iD) theta = p(i) with a moderate
        // current lowers the hotspot temperature relative to i = 0.
        let cfg = config();
        let tile = TileIndex::new(1, 1);
        let s = StampedSystem::new(&cfg, TecParams::superlattice_thin_film(), &[tile]).unwrap();
        let mut powers = vec![Watts(0.0); 16];
        powers[5] = Watts(0.7);
        let solve = |i: Amperes| -> f64 {
            let m = s.system_matrix(i).unwrap();
            let p = s.power_vector(&powers, i).unwrap();
            let theta = Cholesky::factor(&m).unwrap().solve(&p).unwrap();
            let temps: Vec<Kelvin> = theta.into_iter().map(Kelvin).collect();
            s.model().peak_silicon_temperature(&temps).value()
        };
        let t0 = solve(Amperes(0.0));
        let t3 = solve(Amperes(3.0));
        assert!(t3 < t0, "3 A should cool the hotspot: {t3} !< {t0}");
    }

    #[test]
    fn excessive_current_heats_instead() {
        // Far beyond the optimum, Joule heating and Peltier work dominate.
        let cfg = config();
        let tile = TileIndex::new(1, 1);
        let s = StampedSystem::new(&cfg, TecParams::superlattice_thin_film(), &[tile]).unwrap();
        let mut powers = vec![Watts(0.0); 16];
        powers[5] = Watts(0.7);
        let peak_at = |i: Amperes| -> Option<f64> {
            let m = s.system_matrix(i).unwrap();
            let p = s.power_vector(&powers, i).unwrap();
            let chol = Cholesky::factor(&m).ok()?;
            let theta = chol.solve(&p).unwrap();
            let temps: Vec<Kelvin> = theta.into_iter().map(Kelvin).collect();
            Some(s.model().peak_silicon_temperature(&temps).value())
        };
        let t0 = peak_at(Amperes(0.0)).unwrap();
        // Either the factorization fails (past runaway) or the peak exceeds
        // the uncooled peak.
        match peak_at(Amperes(60.0)) {
            None => {}
            Some(t60) => assert!(t60 > t0, "60 A should overheat: {t60} !> {t0}"),
        }
    }

    #[test]
    fn input_power_positive_and_grows_with_current() {
        let cfg = config();
        let s = StampedSystem::new(
            &cfg,
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1), TileIndex::new(2, 2)],
        )
        .unwrap();
        let powers = vec![Watts(0.2); 16];
        let measure = |i: Amperes| -> Watts {
            let m = s.system_matrix(i).unwrap();
            let p = s.power_vector(&powers, i).unwrap();
            let theta = Cholesky::factor(&m).unwrap().solve(&p).unwrap();
            let temps: Vec<Kelvin> = theta.into_iter().map(Kelvin).collect();
            s.input_power(&temps, i).unwrap()
        };
        let p1 = measure(Amperes(1.0));
        let p5 = measure(Amperes(5.0));
        assert!(p1.value() > 0.0);
        assert!(p5 > p1);
    }

    #[test]
    fn workspace_matches_fresh_stamping_bit_for_bit() {
        let s = system(&[TileIndex::new(1, 1), TileIndex::new(2, 3)]);
        let powers = vec![Watts(0.1); 16];
        let mut ws = s.solve_workspace(&powers).unwrap();
        // Visit currents out of order to exercise in-place re-stamping.
        for i in [0.0, 3.5, 1.25, 3.5, 0.0, 7.0] {
            ws.set_current(Amperes(i)).unwrap();
            let m = s.system_matrix(Amperes(i)).unwrap();
            let p = s.power_vector(&powers, Amperes(i)).unwrap();
            assert_eq!(
                ws.matrix().to_dense().as_slice(),
                m.as_slice(),
                "matrix at i = {i}"
            );
            let sparse = s.sparse_system_matrix(Amperes(i)).unwrap();
            assert_eq!(ws.matrix(), &sparse, "sparse matrix at i = {i}");
            assert_eq!(ws.power(), &p[..], "power at i = {i}");
            assert_eq!(ws.current(), Amperes(i));
        }
        assert_eq!(ws.dim(), s.model().node_count());
        // The structure is G's: retargeting only rewrites values.
        assert_eq!(ws.matrix().row_ptr(), s.model().g_matrix().row_ptr());
        assert_eq!(
            ws.matrix().col_indices(),
            s.model().g_matrix().col_indices()
        );
        // Shifted nodes are exactly the junction nodes.
        let shifted = ws.placement_delta();
        assert_eq!(shifted.rank(), 4);
        for &(cold, hot) in s.junctions() {
            assert!(shifted.nodes().contains(&cold) && shifted.nodes().contains(&hot));
        }
    }

    #[test]
    fn placement_delta_reproduces_the_stamped_matrix() {
        let s = system(&[TileIndex::new(1, 1), TileIndex::new(2, 3)]);
        let delta = s.placement_delta();
        assert_eq!(delta.rank(), 4);
        assert_eq!(delta.nodes().len(), delta.per_ampere().len());
        assert!(delta.nodes().windows(2).all(|w| w[0] < w[1]));
        // G plus the structured deltas equals the stamped G - iD exactly.
        let i = Amperes(2.5);
        let mut rebuilt = s.model().g_matrix().to_dense();
        for (k, d) in delta.deltas_at(i) {
            rebuilt[(k, k)] += d;
        }
        let stamped = s.system_matrix(i).unwrap();
        assert_eq!(rebuilt.as_slice(), stamped.as_slice());
        // The workspace view agrees with the stamped-system view.
        let ws = s.solve_workspace(&[Watts(0.1); 16]).unwrap();
        assert_eq!(ws.placement_delta(), delta);
        // Passive system: empty perturbation.
        assert_eq!(system(&[]).placement_delta().rank(), 0);
    }

    #[test]
    fn structural_fingerprint_separates_placements_and_is_stable() {
        let a = system(&[TileIndex::new(1, 1)]);
        let b = system(&[TileIndex::new(2, 2)]);
        let powers = vec![Watts(0.1); 16];
        let fa = a.solve_workspace(&powers).unwrap().structural_fingerprint();
        let fb = b.solve_workspace(&powers).unwrap().structural_fingerprint();
        assert_ne!(fa, fb, "different placements must fingerprint apart");
        // Deterministic across rebuilds and invariant under set_current.
        let mut ws = a.solve_workspace(&powers).unwrap();
        assert_eq!(ws.structural_fingerprint(), fa);
        ws.set_current(Amperes(3.0)).unwrap();
        assert_eq!(ws.structural_fingerprint(), fa);
    }

    #[test]
    fn workspace_rejects_negative_current_and_keeps_state() {
        let s = system(&[TileIndex::new(1, 1)]);
        let mut ws = s.solve_workspace(&[Watts(0.1); 16]).unwrap();
        ws.set_current(Amperes(2.0)).unwrap();
        assert!(matches!(
            ws.set_current(Amperes(-1.0)),
            Err(DeviceError::NegativeCurrent { .. })
        ));
        assert_eq!(ws.current(), Amperes(2.0));
    }

    #[test]
    fn negative_current_rejected() {
        let s = system(&[TileIndex::new(0, 0)]);
        assert!(matches!(
            s.system_matrix(Amperes(-1.0)),
            Err(DeviceError::NegativeCurrent { .. })
        ));
        assert!(s.power_vector(&[Watts(0.0); 16], Amperes(-1.0)).is_err());
    }

    #[test]
    fn invalid_tiles_propagate_thermal_errors() {
        let err = StampedSystem::new(
            &config(),
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(9, 9)],
        )
        .unwrap_err();
        assert!(matches!(err, DeviceError::Thermal(_)));
    }
}
