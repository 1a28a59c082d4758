//! The matrix register: the neighbourhood storage filled by stage 2 of
//! the Process Unit.
//!
//! §3.5: *"In the matrix register is stored the whole neighbourhood that
//! will be input for the next stage. These instructions are divided into
//! two sets: LOAD instructions and SHIFT instructions depending on whether
//! they fill the whole matrix from scratch or whether they only add some
//! pixels shifting the pixels that were already in the matrix."*
//!
//! # Examples
//!
//! ```
//! use vip_engine::matrix::MatrixRegister;
//! use vip_core::neighborhood::Connectivity;
//! use vip_core::pixel::Pixel;
//!
//! let mut m = MatrixRegister::new(Connectivity::Con8);
//! m.load(|col, row| Pixel::from_luma((3 * col + row) as u8));
//! assert_eq!(m.centre().y, 4);
//! m.shift(|row| Pixel::from_luma(9 + row as u8));
//! assert_eq!(m.centre().y, 7);
//! assert_eq!((m.loads(), m.shifts()), (1, 1));
//! ```

use vip_core::geometry::Point;
use vip_core::neighborhood::Connectivity;
use vip_core::pixel::Pixel;

/// The matrix register: a `(2r+1) × (2r+1)` pixel window stored as
/// columns, supporting full LOADs and incremental SHIFTs.
#[derive(Debug, Clone)]
pub struct MatrixRegister {
    shape: Connectivity,
    side: usize,
    /// Columns left→right, each `side` pixels top→bottom.
    columns: Vec<Vec<Pixel>>,
    valid: bool,
    loads: u64,
    shifts: u64,
}

impl MatrixRegister {
    /// Creates an invalid (empty) register for `shape`.
    #[must_use]
    pub fn new(shape: Connectivity) -> Self {
        let side = 2 * shape.radius() + 1;
        MatrixRegister {
            shape,
            side,
            columns: Vec::new(),
            valid: false,
            loads: 0,
            shifts: 0,
        }
    }

    /// The window shape.
    #[must_use]
    pub const fn shape(&self) -> Connectivity {
        self.shape
    }

    /// Window side length.
    #[must_use]
    pub const fn side(&self) -> usize {
        self.side
    }

    /// Whether the register currently holds a complete window.
    #[must_use]
    pub const fn is_valid(&self) -> bool {
        self.valid
    }

    /// LOAD: fills the whole matrix from scratch, each cell from
    /// `fill(col, row)` (columns left→right, rows top→bottom), reusing the
    /// register's column buffers.
    pub fn load(&mut self, mut fill: impl FnMut(usize, usize) -> Pixel) {
        let side = self.side;
        if self.columns.len() != side {
            self.columns = vec![vec![Pixel::default(); side]; side];
        }
        for (col, column) in self.columns.iter_mut().enumerate() {
            for (row, px) in column.iter_mut().enumerate() {
                *px = fill(col, row);
            }
        }
        self.valid = true;
        self.loads += 1;
    }

    /// SHIFT: advances the window one pixel in the scan direction. The
    /// leftmost column buffer rotates to the right edge and refills from
    /// `fill(row)` — the pixel-reuse path that makes the IIM worthwhile.
    ///
    /// # Panics
    ///
    /// Panics when the register is invalid.
    pub fn shift(&mut self, mut fill: impl FnMut(usize) -> Pixel) {
        assert!(self.valid, "SHIFT requires a previously LOADed matrix");
        self.columns.rotate_left(1);
        let column = self.columns.last_mut().expect("LOADed matrix has columns");
        for (row, px) in column.iter_mut().enumerate() {
            *px = fill(row);
        }
        self.shifts += 1;
    }

    /// Reads the window as `(offset, pixel)` samples restricted to the
    /// register's shape.
    ///
    /// # Panics
    ///
    /// Panics when the register is invalid.
    #[must_use]
    pub fn samples(&self) -> Vec<(Point, Pixel)> {
        assert!(self.valid, "reading an invalid matrix register");
        let r = self.shape.radius() as i32;
        self.shape
            .offsets_iter()
            .map(|off| {
                let col = (off.x + r) as usize;
                let row = (off.y + r) as usize;
                (off, self.columns[col][row])
            })
            .collect()
    }

    /// The centre pixel.
    ///
    /// # Panics
    ///
    /// Panics when the register is invalid.
    #[must_use]
    pub fn centre(&self) -> Pixel {
        let r = self.shape.radius();
        assert!(self.valid, "reading an invalid matrix register");
        self.columns[r][r]
    }

    /// LOAD instructions executed.
    #[must_use]
    pub const fn loads(&self) -> u64 {
        self.loads
    }

    /// SHIFT instructions executed.
    #[must_use]
    pub const fn shifts(&self) -> u64 {
        self.shifts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[u8]) -> Vec<Pixel> {
        vals.iter().map(|&v| Pixel::from_luma(v)).collect()
    }

    /// LOADs `m` with `cols` (left→right, each top→bottom).
    fn load(m: &mut MatrixRegister, cols: &[Vec<Pixel>]) {
        m.load(|c, r| cols[c][r]);
    }

    /// SHIFTs `new_column` into `m`.
    fn shift(m: &mut MatrixRegister, new_column: &[Pixel]) {
        m.shift(|r| new_column[r]);
    }

    /// The 3×3 register columns 1..9, left→right.
    fn nine() -> Vec<Vec<Pixel>> {
        vec![col(&[1, 2, 3]), col(&[4, 5, 6]), col(&[7, 8, 9])]
    }

    #[test]
    fn load_makes_valid() {
        let mut m = MatrixRegister::new(Connectivity::Con8);
        assert!(!m.is_valid());
        load(&mut m, &nine());
        assert!(m.is_valid());
        assert_eq!(m.centre().y, 5);
        assert_eq!(m.loads(), 1);
        assert_eq!(m.side(), 3);
    }

    #[test]
    fn samples_map_offsets_correctly() {
        let mut m = MatrixRegister::new(Connectivity::Con8);
        load(&mut m, &nine());
        let s = m.samples();
        let get = |dx: i32, dy: i32| {
            s.iter()
                .find(|(o, _)| *o == Point::new(dx, dy))
                .expect("offset present")
                .1
                .y
        };
        assert_eq!(get(-1, -1), 1); // left column, top
        assert_eq!(get(-1, 1), 3);
        assert_eq!(get(1, -1), 7);
        assert_eq!(get(0, 0), 5);
    }

    #[test]
    fn shift_advances_window() {
        let mut m = MatrixRegister::new(Connectivity::Con8);
        load(&mut m, &nine());
        shift(&mut m, &col(&[10, 11, 12]));
        assert_eq!(m.centre().y, 8, "old right column is the new centre");
        let s = m.samples();
        let right_top = s.iter().find(|(o, _)| *o == Point::new(1, -1)).unwrap().1.y;
        assert_eq!(right_top, 10);
        assert_eq!(m.shifts(), 1);
    }

    #[test]
    fn shift_equals_reload() {
        // A LOAD at x+1 and a SHIFT from x must agree — the hardware's
        // pixel-reuse invariant.
        let c0 = col(&[1, 2, 3]);
        let c1 = col(&[4, 5, 6]);
        let c2 = col(&[7, 8, 9]);
        let c3 = col(&[10, 11, 12]);
        let mut shifted = MatrixRegister::new(Connectivity::Con8);
        load(&mut shifted, &[c0, c1.clone(), c2.clone()]);
        shift(&mut shifted, &c3);
        let mut loaded = MatrixRegister::new(Connectivity::Con8);
        load(&mut loaded, &[c1, c2, c3]);
        assert_eq!(shifted.samples(), loaded.samples());
    }

    #[test]
    fn con0_matrix_is_single_pixel() {
        let mut m = MatrixRegister::new(Connectivity::Con0);
        load(&mut m, &[col(&[42])]);
        assert_eq!(m.centre().y, 42);
        assert_eq!(m.samples().len(), 1);
    }

    #[test]
    fn con4_samples_restricted_to_cross() {
        let mut m = MatrixRegister::new(Connectivity::Con4);
        load(&mut m, &nine());
        let s = m.samples();
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|(o, _)| o.x == 0 || o.y == 0));
    }

    #[test]
    #[should_panic(expected = "SHIFT requires")]
    fn shift_invalid_panics() {
        let mut m = MatrixRegister::new(Connectivity::Con8);
        shift(&mut m, &col(&[1, 2, 3]));
    }
}
