//! Image geometry: dimensions, points, rectangles and the standard frame
//! formats used by the paper (QCIF and CIF).
//!
//! # Examples
//!
//! ```
//! use vip_core::geometry::{Dims, ImageFormat};
//!
//! let cif = ImageFormat::Cif.dims();
//! assert_eq!((cif.width, cif.height), (352, 288));
//! assert_eq!(cif.pixel_count(), 101_376);
//! ```

use core::fmt;

/// Width × height of a frame, in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Dims {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels (number of lines).
    pub height: usize,
}

impl Dims {
    /// Creates a dimension pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use vip_core::geometry::Dims;
    /// let d = Dims::new(4, 3);
    /// assert_eq!(d.pixel_count(), 12);
    /// ```
    #[must_use]
    pub const fn new(width: usize, height: usize) -> Self {
        Dims { width, height }
    }

    /// Total number of pixels.
    #[must_use]
    pub const fn pixel_count(self) -> usize {
        self.width * self.height
    }

    /// Whether either side is zero.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Whether `p` lies inside the frame.
    #[must_use]
    pub const fn contains(self, p: Point) -> bool {
        p.x >= 0 && p.y >= 0 && (p.x as usize) < self.width && (p.y as usize) < self.height
    }

    /// Row-major linear index of `p`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `p` is out of bounds.
    #[must_use]
    pub fn index_of(self, p: Point) -> usize {
        debug_assert!(self.contains(p), "{p} out of bounds for {self}");
        p.y as usize * self.width + p.x as usize
    }

    /// Clamps `p` to the nearest in-bounds position.
    ///
    /// Returns `None` when the frame is empty.
    #[must_use]
    pub fn clamp(self, p: Point) -> Option<Point> {
        if self.is_empty() {
            return None;
        }
        Some(Point::new(
            p.x.clamp(0, self.width as i32 - 1),
            p.y.clamp(0, self.height as i32 - 1),
        ))
    }

    /// Dimensions halved (rounded up), as used by image pyramids.
    #[must_use]
    pub const fn halved(self) -> Dims {
        Dims::new(self.width.div_ceil(2), self.height.div_ceil(2))
    }

    /// The bounding rectangle `[0,0] .. [width,height)`.
    #[must_use]
    pub const fn bounds(self) -> Rect {
        Rect {
            x: 0,
            y: 0,
            width: self.width,
            height: self.height,
        }
    }
}

impl fmt::Display for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

impl From<(usize, usize)> for Dims {
    fn from((width, height): (usize, usize)) -> Self {
        Dims::new(width, height)
    }
}

/// A pixel position. Signed so that neighbourhood offsets can step outside
/// the frame before they are clamped to its edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate (column).
    pub x: i32,
    /// Vertical coordinate (line).
    pub y: i32,
}

impl Point {
    /// Creates a point.
    #[must_use]
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i32, i32)> for Point {
    fn from((x, y): (i32, i32)) -> Self {
        Point::new(x, y)
    }
}

impl core::ops::Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl core::ops::Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

/// An axis-aligned rectangle of pixels, anchored at `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Rect {
    /// Creates a rectangle.
    #[must_use]
    pub const fn new(x: i32, y: i32, width: usize, height: usize) -> Self {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// Whether `p` lies inside the rectangle.
    #[must_use]
    pub const fn contains(&self, p: Point) -> bool {
        p.x >= self.x
            && p.y >= self.y
            && p.x < self.x + self.width as i32
            && p.y < self.y + self.height as i32
    }

    /// Number of pixels covered.
    #[must_use]
    pub const fn area(&self) -> usize {
        self.width * self.height
    }

    /// Iterates over all points of the rectangle in row-major order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        let (x, y, w, h) = (self.x, self.y, self.width as i32, self.height as i32);
        (y..y + h).flat_map(move |py| (x..x + w).map(move |px| Point::new(px, py)))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}@({},{})", self.width, self.height, self.x, self.y)
    }
}

/// The standard frame formats handled by the AddressEngine prototype.
///
/// The ZBT memory of the prototype board is sized to hold *two input and one
/// output image* of either format (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ImageFormat {
    /// 176 × 144 pixels, ≈ 200 kB at 64 bit/pixel.
    Qcif,
    /// 352 × 288 pixels, ≈ 800 kB at 64 bit/pixel.
    Cif,
}

impl ImageFormat {
    /// Frame dimensions of the format.
    #[must_use]
    pub const fn dims(self) -> Dims {
        match self {
            ImageFormat::Qcif => Dims::new(176, 144),
            ImageFormat::Cif => Dims::new(352, 288),
        }
    }

    /// Image size in bytes at the 64-bit pixel size of the AddressLib.
    #[must_use]
    pub const fn bytes(self) -> usize {
        self.dims().pixel_count() * 8
    }

    /// Detects the format from dimensions, if they match exactly.
    #[must_use]
    pub fn from_dims(dims: Dims) -> Option<ImageFormat> {
        [ImageFormat::Qcif, ImageFormat::Cif]
            .into_iter()
            .find(|f| f.dims() == dims)
    }
}

impl fmt::Display for ImageFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageFormat::Qcif => f.write_str("QCIF"),
            ImageFormat::Cif => f.write_str("CIF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_formats_match_paper() {
        assert_eq!(ImageFormat::Qcif.dims(), Dims::new(176, 144));
        assert_eq!(ImageFormat::Cif.dims(), Dims::new(352, 288));
        // §3.1: QCIF ≈ 200 kB, CIF ≈ 800 kB at 8 bytes/pixel.
        assert_eq!(ImageFormat::Qcif.bytes(), 202_752);
        assert_eq!(ImageFormat::Cif.bytes(), 811_008);
        // Strip size 16 divides both image heights (§3.1).
        assert_eq!(ImageFormat::Qcif.dims().height % 16, 0);
        assert_eq!(ImageFormat::Cif.dims().height % 16, 0);
    }

    #[test]
    fn format_detection() {
        assert_eq!(
            ImageFormat::from_dims(Dims::new(352, 288)),
            Some(ImageFormat::Cif)
        );
        assert_eq!(ImageFormat::from_dims(Dims::new(10, 10)), None);
    }

    #[test]
    fn dims_contains_and_index() {
        let d = Dims::new(4, 3);
        assert!(d.contains(Point::new(3, 2)));
        assert!(!d.contains(Point::new(4, 0)));
        assert!(!d.contains(Point::new(0, -1)));
        assert_eq!(d.index_of(Point::new(1, 2)), 9);
    }

    #[test]
    fn dims_clamp() {
        let d = Dims::new(4, 3);
        assert_eq!(d.clamp(Point::new(-5, 10)), Some(Point::new(0, 2)));
        assert_eq!(d.clamp(Point::new(2, 1)), Some(Point::new(2, 1)));
        assert_eq!(Dims::new(0, 3).clamp(Point::ORIGIN), None);
    }

    #[test]
    fn dims_halved_rounds_up() {
        assert_eq!(Dims::new(5, 4).halved(), Dims::new(3, 2));
        assert_eq!(Dims::new(1, 1).halved(), Dims::new(1, 1));
    }

    #[test]
    fn point_arithmetic_and_distances() {
        let a = Point::new(1, 2);
        let b = Point::new(4, -2);
        assert_eq!(a + b, Point::new(5, 0));
        assert_eq!(b - a, Point::new(3, -4));
    }

    #[test]
    fn rect_contains_area_intersect() {
        let r = Rect::new(1, 1, 3, 2);
        assert!(r.contains(Point::new(3, 2)));
        assert!(!r.contains(Point::new(4, 1)));
        assert_eq!(r.area(), 6);
    }

    #[test]
    fn rect_points_row_major() {
        let r = Rect::new(1, 1, 2, 2);
        let pts: Vec<_> = r.points().collect();
        assert_eq!(
            pts,
            vec![
                Point::new(1, 1),
                Point::new(2, 1),
                Point::new(1, 2),
                Point::new(2, 2)
            ]
        );
    }

    #[test]
    fn bounds_covers_whole_frame() {
        let d = Dims::new(3, 2);
        let b = d.bounds();
        assert_eq!(b.area(), d.pixel_count());
        assert!(b.points().all(|p| d.contains(p)));
    }

    #[test]
    fn displays() {
        assert_eq!(Dims::new(3, 2).to_string(), "3x2");
        assert_eq!(Point::new(1, -2).to_string(), "(1, -2)");
        assert_eq!(Rect::new(0, 0, 2, 2).to_string(), "2x2@(0,0)");
        assert_eq!(ImageFormat::Cif.to_string(), "CIF");
    }
}
