use crate::ThermalError;
use tecopt_units::{Meters, SquareMeters};

/// Index of a tile in a [`TileGrid`] (row-major).
///
/// The die is dissected into tiles "where each tile has the same area as a
/// TEC device" (Problem 1 of the paper) — 0.5 mm × 0.5 mm in all the paper's
/// experiments, giving a 12×12 grid over the 6 mm × 6 mm die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileIndex {
    /// Row (y direction), 0-based from the bottom.
    pub row: usize,
    /// Column (x direction), 0-based from the left.
    pub col: usize,
}

impl TileIndex {
    /// Creates a tile index.
    pub fn new(row: usize, col: usize) -> TileIndex {
        TileIndex { row, col }
    }
}

impl core::fmt::Display for TileIndex {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// A uniform grid of square tiles covering the silicon die.
///
/// ```
/// use tecopt_thermal::{TileGrid, TileIndex};
/// use tecopt_units::Meters;
///
/// let grid = TileGrid::new(12, 12, Meters::from_millimeters(0.5)).unwrap();
/// assert_eq!(grid.tile_count(), 144);
/// assert_eq!(grid.linear_index(TileIndex::new(1, 2)), 14);
/// assert!((grid.width().to_millimeters() - 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TileGrid {
    rows: usize,
    cols: usize,
    tile_size: Meters,
}

impl TileGrid {
    /// Creates a grid of `rows × cols` square tiles of side `tile_size`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] if either dimension is zero or
    /// the tile size is not strictly positive.
    pub fn new(rows: usize, cols: usize, tile_size: Meters) -> Result<TileGrid, ThermalError> {
        if rows == 0 || cols == 0 {
            return Err(ThermalError::InvalidConfig(
                "tile grid must have at least one row and one column".into(),
            ));
        }
        if tile_size.value() <= 0.0 || !tile_size.is_finite() {
            return Err(ThermalError::InvalidConfig(format!(
                "tile size must be positive and finite, got {tile_size}"
            )));
        }
        Ok(TileGrid {
            rows,
            cols,
            tile_size,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile side length.
    pub fn tile_size(&self) -> Meters {
        self.tile_size
    }

    /// Area of a single tile.
    pub fn tile_area(&self) -> SquareMeters {
        self.tile_size * self.tile_size
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Die width (x extent).
    pub fn width(&self) -> Meters {
        self.tile_size * self.cols as f64
    }

    /// Die height (y extent).
    pub fn height(&self) -> Meters {
        self.tile_size * self.rows as f64
    }

    /// Row-major linear index of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile is out of bounds; use [`TileGrid::contains`] to
    /// check first.
    pub fn linear_index(&self, tile: TileIndex) -> usize {
        assert!(self.contains(tile), "tile {tile} out of bounds");
        tile.row * self.cols + tile.col
    }

    /// Inverse of [`TileGrid::linear_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= tile_count()`.
    pub fn tile_at(&self, index: usize) -> TileIndex {
        assert!(index < self.tile_count(), "linear index out of bounds");
        TileIndex::new(index / self.cols, index % self.cols)
    }

    /// Whether the tile lies inside the grid.
    pub fn contains(&self, tile: TileIndex) -> bool {
        tile.row < self.rows && tile.col < self.cols
    }

    /// The 4-neighbors (von Neumann) of a tile that lie inside the grid.
    pub fn neighbors(&self, tile: TileIndex) -> impl Iterator<Item = TileIndex> + '_ {
        let TileIndex { row, col } = tile;
        let candidates = [
            (row.wrapping_sub(1), col),
            (row + 1, col),
            (row, col.wrapping_sub(1)),
            (row, col + 1),
        ];
        candidates
            .into_iter()
            .map(|(r, c)| TileIndex::new(r, c))
            .filter(move |t| self.contains(*t))
    }

    /// Iterates all tiles in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = TileIndex> + '_ {
        let cols = self.cols;
        (0..self.tile_count()).map(move |k| TileIndex::new(k / cols, k % cols))
    }
}

/// An axis-aligned rectangle in meters, used for floorplan units and cell
/// footprints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge (x).
    pub x0: f64,
    /// Bottom edge (y).
    pub y0: f64,
    /// Right edge (x).
    pub x1: f64,
    /// Top edge (y).
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle; coordinates are normalized so `x0 ≤ x1`,
    /// `y0 ≤ y1`.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Width (x extent).
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height (y extent).
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area in m².
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Overlap area with another rectangle (zero if disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.x1.min(other.x1) - self.x0.max(other.x0)).max(0.0);
        let h = (self.y1.min(other.y1) - self.y0.max(other.y0)).max(0.0);
        w * h
    }

    /// Center point `(x, y)`.
    pub fn center(&self) -> (f64, f64) {
        (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))
    }
}

/// A uniform lateral grid of cells representing one conductive layer
/// (die, TIM, spreader or sink) of the package.
///
/// Coordinates are absolute so layers of different extents (the spreader and
/// sink overhang the die) can be coupled by geometric overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrid {
    /// Lower-left corner x of the layer footprint, meters.
    pub x0: f64,
    /// Lower-left corner y of the layer footprint, meters.
    pub y0: f64,
    /// Number of cells along x.
    pub nx: usize,
    /// Number of cells along y.
    pub ny: usize,
    /// Lateral cell size, meters (cells are square).
    pub cell: f64,
    /// Layer thickness, meters.
    pub thickness: f64,
    /// Bulk conductivity of the layer, W/(m·K).
    pub conductivity: f64,
}

impl LayerGrid {
    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Row-major linear index of cell `(iy, ix)`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    pub fn index(&self, iy: usize, ix: usize) -> usize {
        assert!(iy < self.ny && ix < self.nx, "layer cell out of bounds");
        iy * self.nx + ix
    }

    /// Footprint rectangle of cell `(iy, ix)`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    pub fn cell_rect(&self, iy: usize, ix: usize) -> Rect {
        assert!(iy < self.ny && ix < self.nx, "layer cell out of bounds");
        let x = self.x0 + ix as f64 * self.cell;
        let y = self.y0 + iy as f64 * self.cell;
        Rect::new(x, y, x + self.cell, y + self.cell)
    }

    /// Lateral conductance between two adjacent cells of this layer:
    /// `k · t · w / d` with `w = d = cell` for square cells, i.e. `k · t`.
    pub fn lateral_conductance(&self) -> f64 {
        self.conductivity * self.thickness
    }

    /// Thermal resistance from this layer's mid-plane to its face, through a
    /// flux tube of cross-section `area`: `(t/2) / (k · area)`.
    pub fn half_resistance(&self, area: f64) -> f64 {
        0.5 * self.thickness / (self.conductivity * area)
    }

    /// Cells of this grid overlapping `rect`, with the overlap areas, in
    /// row-major order. Nothing is allocated: the network builder walks
    /// one window per tile and per spreader cell.
    pub fn cells_overlapping(&self, rect: &Rect) -> impl Iterator<Item = (usize, f64)> + '_ {
        // Restrict the scan to the index window covered by the rectangle.
        let ix0 = (((rect.x0 - self.x0) / self.cell).floor().max(0.0)) as usize;
        let iy0 = (((rect.y0 - self.y0) / self.cell).floor().max(0.0)) as usize;
        let ix1 = ((((rect.x1 - self.x0) / self.cell).ceil()) as usize).min(self.nx);
        let iy1 = ((((rect.y1 - self.y0) / self.cell).ceil()) as usize).min(self.ny);
        let rect = *rect;
        (iy0..iy1)
            .flat_map(move |iy| (ix0..ix1).map(move |ix| (iy, ix)))
            .filter_map(move |(iy, ix)| {
                let a = self.cell_rect(iy, ix).overlap_area(&rect);
                (a > 0.0).then(|| (self.index(iy, ix), a))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_basics() {
        let g = TileGrid::new(3, 4, Meters::from_millimeters(0.5)).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.tile_count(), 12);
        assert!((g.width().to_millimeters() - 2.0).abs() < 1e-12);
        assert!((g.height().to_millimeters() - 1.5).abs() < 1e-12);
        assert!((g.tile_area().to_square_centimeters() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn linear_index_round_trip() {
        let g = TileGrid::new(5, 7, Meters(1e-3)).unwrap();
        for k in 0..g.tile_count() {
            assert_eq!(g.linear_index(g.tile_at(k)), k);
        }
    }

    #[test]
    fn invalid_grids_rejected() {
        assert!(TileGrid::new(0, 4, Meters(1e-3)).is_err());
        assert!(TileGrid::new(4, 0, Meters(1e-3)).is_err());
        assert!(TileGrid::new(4, 4, Meters(0.0)).is_err());
        assert!(TileGrid::new(4, 4, Meters(f64::NAN)).is_err());
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let g = TileGrid::new(3, 3, Meters(1e-3)).unwrap();
        let corner: Vec<_> = g.neighbors(TileIndex::new(0, 0)).collect();
        assert_eq!(corner.len(), 2);
        let center: Vec<_> = g.neighbors(TileIndex::new(1, 1)).collect();
        assert_eq!(center.len(), 4);
        let edge: Vec<_> = g.neighbors(TileIndex::new(0, 1)).collect();
        assert_eq!(edge.len(), 3);
    }

    #[test]
    fn tiles_iterates_row_major() {
        let g = TileGrid::new(2, 2, Meters(1e-3)).unwrap();
        let all: Vec<_> = g.tiles().collect();
        assert_eq!(
            all,
            vec![
                TileIndex::new(0, 0),
                TileIndex::new(0, 1),
                TileIndex::new(1, 0),
                TileIndex::new(1, 1)
            ]
        );
    }

    #[test]
    fn rect_overlap() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert!((a.overlap_area(&b) - 1.0).abs() < 1e-12);
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.overlap_area(&c), 0.0);
        assert_eq!(a.area(), 4.0);
        assert_eq!(a.center(), (1.0, 1.0));
        // Normalization.
        let d = Rect::new(2.0, 2.0, 0.0, 0.0);
        assert_eq!(d, a);
    }

    #[test]
    fn layer_grid_overlap_accounting() {
        let layer = LayerGrid {
            x0: 0.0,
            y0: 0.0,
            nx: 4,
            ny: 4,
            cell: 1.0,
            thickness: 0.1,
            conductivity: 10.0,
        };
        // A 2x2 rect centered on a grid crossing overlaps 4 cells equally.
        let r = Rect::new(0.5, 0.5, 2.5, 2.5);
        let cells: Vec<_> = layer.cells_overlapping(&r).collect();
        assert_eq!(cells.len(), 9); // 3x3 window, corner cells 0.25, edges 0.5, center 1.0
        let total: f64 = cells.iter().map(|(_, a)| a).sum();
        assert!((total - 4.0).abs() < 1e-12);
        // Fully inside one cell.
        let r2 = Rect::new(0.1, 0.1, 0.4, 0.4);
        let cells2: Vec<_> = layer.cells_overlapping(&r2).collect();
        assert_eq!(cells2.len(), 1);
        assert_eq!(cells2[0].0, 0);
    }

    #[test]
    fn layer_grid_conductances() {
        let layer = LayerGrid {
            x0: 0.0,
            y0: 0.0,
            nx: 2,
            ny: 2,
            cell: 0.5e-3,
            thickness: 1e-3,
            conductivity: 400.0,
        };
        assert!((layer.lateral_conductance() - 0.4).abs() < 1e-12);
        let a = 0.25e-6;
        assert!((layer.half_resistance(a) - 0.5e-3 / (400.0 * a)).abs() < 1e-9);
    }

    #[test]
    fn rect_outside_grid_has_no_cells() {
        let layer = LayerGrid {
            x0: 0.0,
            y0: 0.0,
            nx: 2,
            ny: 2,
            cell: 1.0,
            thickness: 0.1,
            conductivity: 1.0,
        };
        let r = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert!(layer.cells_overlapping(&r).next().is_none());
        let left = Rect::new(-3.0, 0.0, -1.0, 1.0);
        assert!(layer.cells_overlapping(&left).next().is_none());
    }
}
