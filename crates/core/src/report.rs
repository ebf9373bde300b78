//! Table-I-style reporting, Fig.-7-style deployment maps, and the solver
//! diagnostics of a placement.

use crate::{CoolingSystem, FactorPlan};
use tecopt_thermal::{TileGrid, TileIndex};
use tecopt_units::{Amperes, Celsius, Watts};

/// One row of the paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TableOneRow {
    /// Benchmark name (`Alpha`, `HC01`, …).
    pub name: String,
    /// Peak tile temperature without TEC devices (`θ_peak`).
    pub peak_no_tec: Celsius,
    /// The maximum allowable temperature used (`θ_limit`).
    pub theta_limit: Celsius,
    /// Devices deployed by `GreedyDeploy` (`#TECs`).
    pub tec_count: usize,
    /// Optimal supply current (`I_opt`).
    pub i_opt: Amperes,
    /// TEC electrical power at the optimum (`P_TEC`).
    pub p_tec: Watts,
    /// Peak temperature achieved by the greedy deployment.
    pub greedy_peak: Celsius,
    /// Minimum peak achievable with every tile covered (`min θ_peak`,
    /// Full Cover).
    pub full_cover_peak: Celsius,
    /// Whether the greedy deployment met `θ_limit`.
    pub satisfied: bool,
    /// Wall-clock seconds spent on deployment + current setting.
    pub runtime_seconds: f64,
}

impl TableOneRow {
    /// The `SwingLoss` column: full-cover minimum peak minus the greedy
    /// deployment's peak.
    pub fn swing_loss(&self) -> Celsius {
        self.full_cover_peak - self.greedy_peak
    }

    /// The active cooling swing: uncooled peak minus greedy peak.
    pub fn cooling_swing(&self) -> Celsius {
        self.peak_no_tec - self.greedy_peak
    }
}

/// Renders rows in the layout of Table I (plus averages, as in the paper's
/// last row).
///
/// ```
/// use tecopt::report::{render_table, TableOneRow};
/// use tecopt_units::{Amperes, Celsius, Watts};
///
/// let row = TableOneRow {
///     name: "Alpha".into(),
///     peak_no_tec: Celsius(91.8),
///     theta_limit: Celsius(85.0),
///     tec_count: 16,
///     i_opt: Amperes(6.1),
///     p_tec: Watts(1.31),
///     greedy_peak: Celsius(84.9),
///     full_cover_peak: Celsius(90.2),
///     satisfied: true,
///     runtime_seconds: 12.0,
/// };
/// let table = render_table(&[row]);
/// assert!(table.contains("Alpha"));
/// assert!(table.contains("SwingLoss"));
/// ```
pub fn render_table(rows: &[TableOneRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>10} {:>8} {:>6} {:>8} {:>8} {:>10} {:>12} {:>10} {:>6} {:>9}\n",
        "Bench",
        "θpeak[°C]",
        "θlim",
        "#TECs",
        "Iopt[A]",
        "PTEC[W]",
        "θgreedy",
        "FullCover",
        "SwingLoss",
        "OK",
        "t[s]"
    ));
    let mut p_tec_sum = 0.0;
    let mut swing_loss_sum = 0.0;
    for r in rows {
        p_tec_sum += r.p_tec.value();
        swing_loss_sum += r.swing_loss().value();
        out.push_str(&format!(
            "{:<8} {:>10.1} {:>8.0} {:>6} {:>8.2} {:>8.2} {:>10.1} {:>12.1} {:>10.1} {:>6} {:>9.1}\n",
            r.name,
            r.peak_no_tec.value(),
            r.theta_limit.value(),
            r.tec_count,
            r.i_opt.value(),
            r.p_tec.value(),
            r.greedy_peak.value(),
            r.full_cover_peak.value(),
            r.swing_loss().value(),
            if r.satisfied { "yes" } else { "NO" },
            r.runtime_seconds,
        ));
    }
    if !rows.is_empty() {
        let n = rows.len() as f64;
        out.push_str(&format!(
            "{:<8} {:>10} {:>8} {:>6} {:>8} {:>8.2} {:>10} {:>12} {:>10.1} {:>6} {:>9}\n",
            "Avg.",
            "",
            "",
            "",
            "",
            p_tec_sum / n,
            "",
            "",
            swing_loss_sum / n,
            "",
            ""
        ));
    }
    out
}

/// Renders the TEC deployment over the tile grid as ASCII art in the style
/// of Fig. 7(b): `#` for covered tiles, `.` for plain tiles. Row 0 of the
/// grid is printed at the bottom, matching the floorplan orientation.
pub fn deployment_map(grid: &TileGrid, tiles: &[TileIndex]) -> String {
    let covered: std::collections::HashSet<&TileIndex> = tiles.iter().collect();
    let mut out = String::new();
    for row in (0..grid.rows()).rev() {
        for col in 0..grid.cols() {
            let t = TileIndex::new(row, col);
            out.push(if covered.contains(&t) { '#' } else { '.' });
            if col + 1 < grid.cols() {
                out.push(' ');
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a temperature map (one value per tile, row-major) with one
/// decimal, row 0 at the bottom.
///
/// # Panics
///
/// Panics if `temps` does not have one entry per tile.
pub fn temperature_map(grid: &TileGrid, temps: &[Celsius]) -> String {
    assert_eq!(temps.len(), grid.tile_count(), "one temperature per tile");
    let mut out = String::new();
    for row in (0..grid.rows()).rev() {
        for col in 0..grid.cols() {
            out.push_str(&format!("{:6.1}", temps[row * grid.cols() + col].value()));
        }
        out.push('\n');
    }
    out
}

/// One line naming how a placement's steady solves and runaway search
/// were factored: network size, devices, backend, and the plan of
/// [`CoolingSystem::factor_plan`] (`trailing block (k = …)`, `network`, or
/// `not built` before the first default-backend solve or `λ_m` search).
pub fn solver_diagnostics(system: &CoolingSystem) -> String {
    let plan = match system.factor_plan() {
        Some(FactorPlan::TrailingBlock { k }) => format!("trailing block (k = {k})"),
        Some(FactorPlan::Network) => "network".to_string(),
        None => "not built".to_string(),
    };
    format!(
        "n = {} nodes, {} TECs, backend {:?}, factor plan {plan}",
        system.stamped().model().node_count(),
        system.device_count(),
        system.backend()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_device::TecParams;
    use tecopt_thermal::PackageConfig;
    use tecopt_units::Meters;

    #[test]
    fn solver_diagnostics_name_the_plan_once_it_ran() {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let s = CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1)],
            vec![Watts(0.1); 16],
        )
        .unwrap();
        assert!(solver_diagnostics(&s).ends_with("factor plan not built"));
        s.solve(Amperes(1.0)).unwrap();
        let line = solver_diagnostics(&s);
        assert!(line.contains("1 TECs"), "{line}");
        assert!(line.contains("backend Auto"), "{line}");
        assert!(
            line.ends_with("factor plan trailing block (k = 2)"),
            "{line}"
        );
    }

    fn row(name: &str, p_tec: f64, greedy: f64, full: f64) -> TableOneRow {
        TableOneRow {
            name: name.into(),
            peak_no_tec: Celsius(91.8),
            theta_limit: Celsius(85.0),
            tec_count: 16,
            i_opt: Amperes(6.1),
            p_tec: Watts(p_tec),
            greedy_peak: Celsius(greedy),
            full_cover_peak: Celsius(full),
            satisfied: true,
            runtime_seconds: 3.0,
        }
    }

    #[test]
    fn derived_columns() {
        let r = row("Alpha", 1.31, 84.9, 90.2);
        assert!((r.swing_loss().value() - 5.3).abs() < 1e-9);
        assert!((r.cooling_swing().value() - 6.9).abs() < 1e-9);
    }

    #[test]
    fn table_includes_average_row() {
        let t = render_table(&[row("A", 1.0, 84.0, 88.0), row("B", 3.0, 83.0, 89.0)]);
        assert!(t.contains("Avg."));
        // Average P_TEC = 2.00, average swing loss = 5.0.
        assert!(t.contains("2.00"));
        assert!(t.contains("5.0"));
    }

    #[test]
    fn empty_table_has_header_only() {
        let t = render_table(&[]);
        assert!(t.contains("Bench"));
        assert!(!t.contains("Avg."));
    }

    #[test]
    fn deployment_map_marks_covered_tiles() {
        let grid = TileGrid::new(3, 3, Meters(5e-4)).unwrap();
        let map = deployment_map(&grid, &[TileIndex::new(0, 0), TileIndex::new(2, 2)]);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 3);
        // Row 2 prints first (top), row 0 last (bottom).
        assert_eq!(lines[0], ". . #");
        assert_eq!(lines[2], "# . .");
    }

    #[test]
    fn temperature_map_formats() {
        let grid = TileGrid::new(2, 2, Meters(5e-4)).unwrap();
        let map = temperature_map(
            &grid,
            &[Celsius(50.0), Celsius(51.5), Celsius(60.0), Celsius(61.25)],
        );
        let lines: Vec<&str> = map.lines().collect();
        assert!(lines[0].contains("60.0") && lines[0].contains("61.2"));
        assert!(lines[1].contains("50.0") && lines[1].contains("51.5"));
    }
}
