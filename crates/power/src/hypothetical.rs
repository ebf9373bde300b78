//! Seeded generation of hypothetical benchmark chips (Sec. VI.B).
//!
//! The paper's second experiment set uses "10 hypothetical chips, each
//! represented by a 12x12 array of tiles corresponding to a 6 mm × 6 mm
//! floorplan": the floorplan is randomly divided into functional units of
//! 5–15 tiles, two units are made hot (≈30 % of chip power in ≈10 % of the
//! area), and total power is drawn from 15–25 W. This module reproduces the
//! generator with a seeded RNG so chips HC01–HC10 are stable across runs.

use crate::PowerError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tecopt_thermal::TileGrid;
use tecopt_units::{Meters, Watts};

/// Generation controls for [`HypotheticalChip::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypotheticalSettings {
    /// Grid rows (paper: 12).
    pub rows: usize,
    /// Grid columns (paper: 12).
    pub cols: usize,
    /// Tile side (paper: 0.5 mm).
    pub tile_size: Meters,
    /// Smallest unit size in tiles (paper: 5).
    pub min_unit_tiles: usize,
    /// Largest unit size in tiles (paper: 15).
    pub max_unit_tiles: usize,
    /// Fraction of chip power drawn by the two hot units (paper: 0.30).
    pub hot_power_fraction: f64,
    /// Targeted combined area fraction of the hot units (paper: ≈0.10).
    /// The default targets 0.08 with the paper's 89–96 °C uncooled band in
    /// mind, which it does not guarantee: the standard suite's uncooled
    /// peaks measure 84.1–106.8 °C (EXPERIMENTS.md E2).
    pub hot_area_fraction: f64,
    /// Total chip power range in watts (paper: 15-25). The default floor
    /// is 17 W to push the uncooled peaks past the 85 °C limit, but it does
    /// not guarantee it: the standard suite's HC07 peaks at 84.1 °C and
    /// needs no TEC (EXPERIMENTS.md E2).
    pub total_power_range: (f64, f64),
}

impl Default for HypotheticalSettings {
    fn default() -> HypotheticalSettings {
        HypotheticalSettings {
            rows: 12,
            cols: 12,
            tile_size: Meters::from_millimeters(0.5),
            min_unit_tiles: 5,
            max_unit_tiles: 15,
            hot_power_fraction: 0.30,
            hot_area_fraction: 0.08,
            total_power_range: (17.0, 25.0),
        }
    }
}

impl HypotheticalSettings {
    fn validate(&self) -> Result<(), PowerError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(PowerError::InvalidParameter("empty grid".into()));
        }
        if self.min_unit_tiles == 0 || self.min_unit_tiles > self.max_unit_tiles {
            return Err(PowerError::InvalidParameter(format!(
                "unit size range [{}, {}] is invalid",
                self.min_unit_tiles, self.max_unit_tiles
            )));
        }
        if !(0.0..1.0).contains(&self.hot_power_fraction) {
            return Err(PowerError::InvalidParameter(format!(
                "hot power fraction {} outside [0, 1)",
                self.hot_power_fraction
            )));
        }
        if !(0.0..1.0).contains(&self.hot_area_fraction) {
            return Err(PowerError::InvalidParameter(format!(
                "hot area fraction {} outside [0, 1)",
                self.hot_area_fraction
            )));
        }
        let (lo, hi) = self.total_power_range;
        if !(lo > 0.0 && hi >= lo && hi.is_finite()) {
            return Err(PowerError::InvalidParameter(format!(
                "total power range ({lo}, {hi}) is invalid"
            )));
        }
        Ok(())
    }
}

/// A generated hypothetical chip: a tile-level unit partition with a
/// worst-case power assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct HypotheticalChip {
    name: String,
    grid: TileGrid,
    /// Unit index per tile, row-major.
    unit_of_tile: Vec<usize>,
    /// Tile (linear) indices per unit.
    unit_tiles: Vec<Vec<usize>>,
    /// Worst-case power per unit.
    unit_powers: Vec<Watts>,
    /// Indices of the two high-density units.
    hot_units: [usize; 2],
}

impl HypotheticalChip {
    /// Generates a chip from a seed.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for degenerate settings.
    pub fn generate(
        name: impl Into<String>,
        seed: u64,
        settings: &HypotheticalSettings,
    ) -> Result<HypotheticalChip, PowerError> {
        settings.validate()?;
        let grid = TileGrid::new(settings.rows, settings.cols, settings.tile_size)
            .map_err(|e| PowerError::InvalidParameter(e.to_string()))?;
        let n = grid.tile_count();
        let mut rng = StdRng::seed_from_u64(seed);

        // --- Partition the grid into connected units via region growing.
        let mut unit_of_tile = vec![usize::MAX; n];
        let mut unit_tiles: Vec<Vec<usize>> = Vec::new();
        let mut unassigned: Vec<usize> = (0..n).collect();
        while !unassigned.is_empty() {
            let start_pos = rng.gen_range(0..unassigned.len());
            let start = unassigned[start_pos];
            let target = rng.gen_range(settings.min_unit_tiles..=settings.max_unit_tiles.min(n));
            let unit_idx = unit_tiles.len();
            let mut region = vec![start];
            unit_of_tile[start] = unit_idx;
            let mut frontier: Vec<usize> = neighbor_indices(&grid, start)
                .into_iter()
                .filter(|&t| unit_of_tile[t] == usize::MAX)
                .collect();
            while region.len() < target && !frontier.is_empty() {
                let pick = rng.gen_range(0..frontier.len());
                let t = frontier.swap_remove(pick);
                if unit_of_tile[t] != usize::MAX {
                    continue;
                }
                unit_of_tile[t] = unit_idx;
                region.push(t);
                for nb in neighbor_indices(&grid, t) {
                    if unit_of_tile[nb] == usize::MAX && !frontier.contains(&nb) {
                        frontier.push(nb);
                    }
                }
            }
            if region.len() < settings.min_unit_tiles {
                // The region got trapped; merge it into an adjacent unit if
                // one exists (it always does unless the whole grid is small).
                let adjacent_unit = region
                    .iter()
                    .flat_map(|&t| neighbor_indices(&grid, t))
                    .map(|t| unit_of_tile[t])
                    .find(|&u| u != usize::MAX && u != unit_idx);
                if let Some(host) = adjacent_unit {
                    for &t in &region {
                        unit_of_tile[t] = host;
                    }
                    unit_tiles[host].extend(region.iter().copied());
                    unassigned.retain(|t| unit_of_tile[*t] == usize::MAX);
                    continue;
                }
            }
            unit_tiles.push(region);
            unassigned.retain(|t| unit_of_tile[*t] == usize::MAX);
        }

        // --- Choose the two hot units: the pair whose combined tile count is
        // closest to the target hot area fraction.
        let target_tiles = settings.hot_area_fraction * n as f64;
        let mut best = (0usize, 1usize.min(unit_tiles.len() - 1), f64::INFINITY);
        for a in 0..unit_tiles.len() {
            for b in (a + 1)..unit_tiles.len() {
                let combined = (unit_tiles[a].len() + unit_tiles[b].len()) as f64;
                let err = (combined - target_tiles).abs();
                if err < best.2 {
                    best = (a, b, err);
                }
            }
        }
        let hot_units = [best.0, best.1];

        // --- Assign powers: hot units share `hot_power_fraction` of the
        // total by area; the rest share the remainder by area.
        let (lo, hi) = settings.total_power_range;
        let total = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
        let hot_tiles: usize = hot_units.iter().map(|&u| unit_tiles[u].len()).sum();
        let cold_tiles = n - hot_tiles;
        let hot_power = settings.hot_power_fraction * total;
        let cold_power = total - hot_power;
        let unit_powers: Vec<Watts> = unit_tiles
            .iter()
            .enumerate()
            .map(|(u, tiles)| {
                if hot_units.contains(&u) {
                    Watts(hot_power * tiles.len() as f64 / hot_tiles as f64)
                } else {
                    Watts(cold_power * tiles.len() as f64 / cold_tiles as f64)
                }
            })
            .collect();

        Ok(HypotheticalChip {
            name: name.into(),
            grid,
            unit_of_tile,
            unit_tiles,
            unit_powers,
            hot_units,
        })
    }

    /// Seeds of the standard HC01–HC10 suite.
    ///
    /// Curated from the seeded generator with the paper's Table-I band in
    /// mind (uncooled peaks 89.4–95.3 °C, column 1), which the suite does
    /// not hit: its uncooled peaks measure 84.1–106.8 °C (EXPERIMENTS.md
    /// E2). HC07 peaks below the 85 °C limit and deploys no TEC, and four
    /// chips (HC01–HC03, HC09) — like the paper's HC06/HC09 — cannot be
    /// brought down to 85 °C and run at limits raised to 87–96 °C.
    pub const STANDARD_SEEDS: [u64; 10] = [34, 11, 16, 9, 25, 17, 36, 38, 8, 32];

    /// The paper's benchmark suite: HC01–HC10 with the
    /// [`STANDARD_SEEDS`](Self::STANDARD_SEEDS) and default settings.
    pub fn standard_suite() -> Vec<HypotheticalChip> {
        Self::STANDARD_SEEDS
            .iter()
            .enumerate()
            .map(|(k, &seed)| {
                // The curated seeds are generated with the default settings,
                // which `generate` always accepts.
                #[allow(clippy::expect_used)]
                let chip = HypotheticalChip::generate(
                    format!("HC{:02}", k + 1),
                    seed,
                    &HypotheticalSettings::default(),
                )
                .expect("default settings are valid");
                chip
            })
            .collect()
    }

    /// Chip name (e.g. `HC03`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Number of functional units.
    pub fn unit_count(&self) -> usize {
        self.unit_tiles.len()
    }

    /// Unit index of each tile, row-major.
    pub fn unit_of_tile(&self) -> &[usize] {
        &self.unit_of_tile
    }

    /// Indices of the two high-density units.
    pub fn hot_units(&self) -> [usize; 2] {
        self.hot_units
    }

    /// Total worst-case chip power.
    pub fn total_power(&self) -> Watts {
        self.unit_powers.iter().copied().sum()
    }

    /// Combined area fraction of the hot units.
    pub fn hot_area_fraction(&self) -> f64 {
        let hot: usize = self
            .hot_units
            .iter()
            .map(|&u| self.unit_tiles[u].len())
            .sum();
        hot as f64 / self.grid.tile_count() as f64
    }

    /// Combined power fraction of the hot units.
    pub fn hot_power_fraction(&self) -> f64 {
        let hot: f64 = self
            .hot_units
            .iter()
            .map(|&u| self.unit_powers[u].value())
            .sum();
        hot / self.total_power().value()
    }

    /// Worst-case power per tile, row-major (each unit's power spread
    /// uniformly over its tiles).
    pub fn tile_powers(&self) -> Vec<Watts> {
        let mut out = vec![Watts(0.0); self.grid.tile_count()];
        for (u, tiles) in self.unit_tiles.iter().enumerate() {
            let per_tile = self.unit_powers[u] / tiles.len() as f64;
            for &t in tiles {
                out[t] = per_tile;
            }
        }
        out
    }
}

fn neighbor_indices(grid: &TileGrid, linear: usize) -> Vec<usize> {
    let t = grid.tile_at(linear);
    grid.neighbors(t).map(|n| grid.linear_index(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_reproducible_and_valid() {
        let a = HypotheticalChip::standard_suite();
        let b = HypotheticalChip::standard_suite();
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "generation must be deterministic");
        }
    }

    #[test]
    fn partition_covers_grid_with_connected_units() {
        for chip in HypotheticalChip::standard_suite() {
            let n = chip.grid().tile_count();
            assert_eq!(chip.unit_of_tile().len(), n);
            assert!(chip.unit_of_tile().iter().all(|&u| u < chip.unit_count()));
            // Each unit connected: BFS from its first tile reaches all.
            for u in 0..chip.unit_count() {
                let tiles: Vec<usize> = (0..n).filter(|&t| chip.unit_of_tile()[t] == u).collect();
                assert!(!tiles.is_empty());
                let set: std::collections::HashSet<usize> = tiles.iter().copied().collect();
                let mut seen = std::collections::HashSet::new();
                let mut stack = vec![tiles[0]];
                seen.insert(tiles[0]);
                while let Some(t) = stack.pop() {
                    for nb in neighbor_indices(chip.grid(), t) {
                        if set.contains(&nb) && seen.insert(nb) {
                            stack.push(nb);
                        }
                    }
                }
                assert_eq!(
                    seen.len(),
                    tiles.len(),
                    "unit {u} of {} disconnected",
                    chip.name()
                );
            }
        }
    }

    #[test]
    fn unit_sizes_within_bounds_after_merging() {
        let s = HypotheticalSettings::default();
        for chip in HypotheticalChip::standard_suite() {
            for u in 0..chip.unit_count() {
                let count = chip.unit_of_tile().iter().filter(|&&x| x == u).count();
                // Several trapped regions (each < min tiles) can merge into
                // the same host, so allow a couple of merges of slack.
                assert!(
                    count >= s.min_unit_tiles && count <= s.max_unit_tiles + 2 * s.min_unit_tiles,
                    "{}: unit {u} has {count} tiles",
                    chip.name()
                );
            }
        }
    }

    #[test]
    fn power_statistics_match_paper() {
        for chip in HypotheticalChip::standard_suite() {
            let total = chip.total_power().value();
            assert!((15.0..=25.0).contains(&total), "{}: {total} W", chip.name());
            let pf = chip.hot_power_fraction();
            assert!((pf - 0.30).abs() < 1e-9, "{}: hot power {pf}", chip.name());
            let af = chip.hot_area_fraction();
            assert!(
                (0.06..=0.16).contains(&af),
                "{}: hot area {af}",
                chip.name()
            );
        }
    }

    #[test]
    fn tile_powers_conserve_total() {
        for chip in HypotheticalChip::standard_suite() {
            let sum: Watts = chip.tile_powers().into_iter().sum();
            assert!((sum.value() - chip.total_power().value()).abs() < 1e-9);
        }
    }

    #[test]
    fn hot_tiles_are_denser_than_cold() {
        for chip in HypotheticalChip::standard_suite() {
            let tp = chip.tile_powers();
            let hot = chip.hot_units();
            let hot_max = (0..tp.len())
                .filter(|&t| hot.contains(&chip.unit_of_tile()[t]))
                .map(|t| tp[t].value())
                .fold(0.0_f64, f64::max);
            let cold_max = (0..tp.len())
                .filter(|&t| !hot.contains(&chip.unit_of_tile()[t]))
                .map(|t| tp[t].value())
                .fold(0.0_f64, f64::max);
            assert!(
                hot_max > 2.0 * cold_max,
                "{}: hot tiles not dominant",
                chip.name()
            );
        }
    }

    #[test]
    fn invalid_settings_rejected() {
        let s = HypotheticalSettings {
            min_unit_tiles: 0,
            ..HypotheticalSettings::default()
        };
        assert!(HypotheticalChip::generate("x", 1, &s).is_err());
        let s2 = HypotheticalSettings {
            hot_power_fraction: 1.5,
            ..HypotheticalSettings::default()
        };
        assert!(HypotheticalChip::generate("x", 1, &s2).is_err());
        let s3 = HypotheticalSettings {
            total_power_range: (25.0, 15.0),
            ..HypotheticalSettings::default()
        };
        assert!(HypotheticalChip::generate("x", 1, &s3).is_err());
    }

    #[test]
    fn different_seeds_differ() {
        let s = HypotheticalSettings::default();
        let a = HypotheticalChip::generate("a", 1, &s).unwrap();
        let b = HypotheticalChip::generate("b", 2, &s).unwrap();
        assert_ne!(a.unit_of_tile(), b.unit_of_tile());
    }
}
