use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BBox, Point};

/// Identifier of one grid cell: integer column (`ix`, east) and row (`iy`,
/// north) indices relative to the grid origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    pub ix: i32,
    pub iy: i32,
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell({}, {})", self.ix, self.iy)
    }
}

/// Uniform analysis grid over the planar frame.
///
/// The paper aggregates point speeds and map features into even
/// 200 m × 200 m cells (§V); this type provides the cell addressing for that
/// aggregation, for Table 5 and Figs. 6–9.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    origin: Point,
    cell_size: f64,
}

impl Grid {
    /// Creates a grid anchored at `origin` with square cells of
    /// `cell_size` metres. Panics if `cell_size` is not strictly positive.
    pub fn new(origin: Point, cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite, got {cell_size}"
        );
        Self { origin, cell_size }
    }

    /// Cell edge length in metres.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The cell containing `p` (cells are half-open: `[min, min + size)`).
    #[inline]
    pub fn cell_of(&self, p: Point) -> CellId {
        CellId {
            ix: ((p.x - self.origin.x) / self.cell_size).floor() as i32,
            iy: ((p.y - self.origin.y) / self.cell_size).floor() as i32,
        }
    }

    /// South-west corner of a cell.
    #[inline]
    pub fn cell_min(&self, c: CellId) -> Point {
        Point::new(
            self.origin.x + c.ix as f64 * self.cell_size,
            self.origin.y + c.iy as f64 * self.cell_size,
        )
    }

    /// Geometric centre of a cell.
    #[inline]
    pub fn cell_center(&self, c: CellId) -> Point {
        let min = self.cell_min(c);
        Point::new(min.x + self.cell_size / 2.0, min.y + self.cell_size / 2.0)
    }

    /// Bounding box of a cell.
    #[inline]
    pub fn cell_bbox(&self, c: CellId) -> BBox {
        let min = self.cell_min(c);
        BBox {
            min_x: min.x,
            min_y: min.y,
            max_x: min.x + self.cell_size,
            max_y: min.y + self.cell_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's 200 m grid anchored at the frame origin.
    fn paper_grid() -> Grid {
        Grid::new(Point::new(0.0, 0.0), 200.0)
    }

    #[test]
    fn cell_addressing_half_open() {
        let g = paper_grid();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), CellId { ix: 0, iy: 0 });
        assert_eq!(g.cell_of(Point::new(199.9, 199.9)), CellId { ix: 0, iy: 0 });
        assert_eq!(g.cell_of(Point::new(200.0, 0.0)), CellId { ix: 1, iy: 0 });
        assert_eq!(g.cell_of(Point::new(-0.1, -0.1)), CellId { ix: -1, iy: -1 });
    }

    #[test]
    fn center_is_inside_cell() {
        let g = paper_grid();
        let c = CellId { ix: 3, iy: -2 };
        let center = g.cell_center(c);
        assert_eq!(g.cell_of(center), c);
        assert_eq!(center, Point::new(700.0, -300.0));
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn rejects_zero_cell_size() {
        let _ = Grid::new(Point::new(0.0, 0.0), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every point falls inside the bbox of the cell it maps to.
        #[test]
        fn point_inside_own_cell(x in -1e5f64..1e5, y in -1e5f64..1e5, size in 1f64..1000.0) {
            let g = Grid::new(Point::new(0.0, 0.0), size);
            let p = Point::new(x, y);
            let c = g.cell_of(p);
            let b = g.cell_bbox(c);
            // Floating point rounding at cell borders can put the point on
            // the boundary; allow a metre-scale epsilon relative to size.
            prop_assert!(p.x >= b.min_x - 1e-9 && p.x <= b.max_x + 1e-9);
            prop_assert!(p.y >= b.min_y - 1e-9 && p.y <= b.max_y + 1e-9);
        }

        /// Neighbouring cells never share interior points.
        #[test]
        fn cells_disjoint(ix in -100i32..100, iy in -100i32..100) {
            let g = Grid::new(Point::new(0.0, 0.0), 200.0);
            let c = CellId { ix, iy };
            let center = g.cell_center(c);
            prop_assert_eq!(g.cell_of(center), c);
        }
    }
}
