//! Neighbourhood shapes and windows.
//!
//! Intra addressing computes each output pixel from the pixel's original
//! value *and the values of its neighbours within the same image* (§2.1).
//! Table 2 of the paper names two concrete shapes: `CON_0` (the pixel
//! itself) and `CON_8` (the squared 8-pixel neighbourhood of fig. 4). The
//! transfer-strip size of 16 lines is derived from the *maximum* input
//! range of nine lines, so shapes up to 9×9 are representable.
//!
//! # Examples
//!
//! ```
//! use vip_core::neighborhood::Connectivity;
//!
//! assert_eq!(Connectivity::Con8.offsets().len(), 9); // centre + 8 neighbours
//! assert_eq!(Connectivity::Con0.offsets().len(), 1);
//! ```

use core::fmt;

use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::geometry::Point;
use crate::pixel::Pixel;

/// Maximum neighbourhood extent supported by the transfer scheme: nine
/// lines (§3.1), i.e. a radius of four around the centre pixel.
pub const MAX_RADIUS: usize = 4;

/// Maximum number of lines a neighbourhood may span (9, per §3.1).
pub const MAX_LINES: usize = 2 * MAX_RADIUS + 1;

/// Named neighbourhood shapes of the AddressLib.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum Connectivity {
    /// The pixel itself only (`CON_0` in Table 2).
    Con0,
    /// The 4-connected cross (centre + N, S, E, W).
    Con4,
    /// The squared 8-pixel neighbourhood (`CON_8` in Table 2 / fig. 4):
    /// centre + its 8 surrounding pixels, a 3×3 window.
    #[default]
    Con8,
    /// A full square window of the given radius (1 ⇒ identical to
    /// [`Connectivity::Con8`]). Calls refuse a radius above [`MAX_RADIUS`]
    /// through [`Connectivity::check_span`].
    Square(u8),
}

impl Connectivity {
    /// Checks that the shape spans at most [`MAX_LINES`] lines, the
    /// widest window the IIM delivers (§3.1). Every call that builds
    /// windows checks its shapes with this before it does any work.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] named `shape` for a wider
    /// shape (only [`Connectivity::Square`] can be one).
    pub fn check_span(self) -> CoreResult<()> {
        if self.radius() > MAX_RADIUS {
            return Err(CoreError::InvalidParameter {
                name: "shape",
                reason: "neighbourhood may span at most nine lines (radius 4)",
            });
        }
        Ok(())
    }

    /// Window radius: the largest |offset| in either axis.
    #[must_use]
    pub const fn radius(self) -> usize {
        match self {
            Connectivity::Con0 => 0,
            Connectivity::Con4 | Connectivity::Con8 => 1,
            Connectivity::Square(r) => r as usize,
        }
    }

    /// Number of image lines the window spans (`2·radius + 1`).
    #[must_use]
    pub const fn lines(self) -> usize {
        2 * self.radius() + 1
    }

    /// The offsets of the window relative to the centre, in row-major
    /// order. The centre `(0,0)` is always included.
    ///
    /// Allocates; the hot paths (window gathers, IIM fetches) use the
    /// allocation-free [`Connectivity::offsets_iter`] instead.
    #[must_use]
    pub fn offsets(self) -> Vec<Point> {
        self.offsets_iter().collect()
    }

    /// Iterates the window offsets in the same row-major order as
    /// [`Connectivity::offsets`], without allocating.
    #[must_use]
    pub fn offsets_iter(self) -> Offsets {
        Offsets {
            shape: self,
            idx: 0,
            len: self.offset_count(),
        }
    }

    /// Number of offsets in the window.
    #[must_use]
    pub const fn offset_count(self) -> usize {
        match self {
            Connectivity::Con0 => 1,
            Connectivity::Con4 => 5,
            Connectivity::Con8 | Connectivity::Square(_) => {
                let side = 2 * self.radius() + 1;
                side * side
            }
        }
    }

    /// Whether `off` is one of the window's offsets — O(1), the hot-path
    /// replacement for `offsets().contains(&off)`.
    #[must_use]
    pub const fn contains_offset(self, off: Point) -> bool {
        match self {
            Connectivity::Con0 => off.x == 0 && off.y == 0,
            Connectivity::Con4 => off.x.abs() + off.y.abs() <= 1,
            Connectivity::Con8 | Connectivity::Square(_) => {
                let r = self.radius() as i32;
                off.x.abs() <= r && off.y.abs() <= r
            }
        }
    }

    /// The *expansion* offsets used by segment addressing: the neighbours
    /// (centre excluded) that are tested against the neighbourhood
    /// criterion.
    #[must_use]
    pub fn expansion_offsets(self) -> Vec<Point> {
        self.offsets_iter()
            .filter(|p| *p != Point::ORIGIN)
            .collect()
    }

    /// Number of *new* pixels that enter a sliding window per unit step in
    /// the scan direction; e.g. 3 for `CON_8` moving horizontally.
    ///
    /// This is the quantity the software memory-access model of Table 2 is
    /// built on: a software sweep re-loads exactly these pixels per step,
    /// while the AddressEngine loads them all in parallel in one IIM cycle.
    #[must_use]
    pub fn new_pixels_per_step(self) -> usize {
        match self {
            Connectivity::Con0 => 1,
            Connectivity::Con4 => 3, // leading cross arm: E plus N/S become loadable
            Connectivity::Con8 => 3,
            Connectivity::Square(r) => 2 * r as usize + 1,
        }
    }
}

/// Allocation-free iterator over a window's offsets, in row-major order
/// (see [`Connectivity::offsets_iter`]).
#[derive(Debug, Clone)]
pub struct Offsets {
    shape: Connectivity,
    idx: usize,
    len: usize,
}

/// `CON_4` offsets in row-major order.
const CON4_OFFSETS: [Point; 5] = [
    Point::new(0, -1),
    Point::new(-1, 0),
    Point::ORIGIN,
    Point::new(1, 0),
    Point::new(0, 1),
];

impl Iterator for Offsets {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.idx >= self.len {
            return None;
        }
        let i = self.idx;
        self.idx += 1;
        Some(match self.shape {
            Connectivity::Con0 => Point::ORIGIN,
            Connectivity::Con4 => CON4_OFFSETS[i],
            Connectivity::Con8 | Connectivity::Square(_) => {
                let r = self.shape.radius() as i32;
                let side = 2 * self.shape.radius() + 1;
                Point::new((i % side) as i32 - r, (i / side) as i32 - r)
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Offsets {}

impl fmt::Display for Connectivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Connectivity::Con0 => f.write_str("CON_0"),
            Connectivity::Con4 => f.write_str("CON_4"),
            Connectivity::Con8 => f.write_str("CON_8"),
            Connectivity::Square(r) => write!(f, "SQ_{r}"),
        }
    }
}

/// Slots in a [`Window`] buffer: the full `MAX_LINES × MAX_LINES` square
/// of the widest shape.
const WINDOW_SLOTS: usize = MAX_LINES * MAX_LINES;

/// The slot of offset `(0, 0)`; offset `(dx, dy)` lives in slot
/// `CENTRE_SLOT + dy·MAX_LINES + dx` whatever the window's radius, so a
/// constant offset is a constant slot.
const CENTRE_SLOT: usize = WINDOW_SLOTS / 2;

/// The buffer slot of an offset within [`MAX_RADIUS`] of the centre.
const fn slot(dx: i32, dy: i32) -> usize {
    (CENTRE_SLOT as i32 + dy * MAX_LINES as i32 + dx) as usize
}

/// The offset held by each buffer slot (the inverse of [`slot`]).
static SLOT_OFFSETS: [Point; WINDOW_SLOTS] = slot_offsets();

const fn slot_offsets() -> [Point; WINDOW_SLOTS] {
    let mut offsets = [Point::ORIGIN; WINDOW_SLOTS];
    let mut i = 0;
    while i < WINDOW_SLOTS {
        offsets[i] = Point::new(
            (i % MAX_LINES) as i32 - MAX_RADIUS as i32,
            (i / MAX_LINES) as i32 - MAX_RADIUS as i32,
        );
        i += 1;
    }
    offsets
}

/// Slot masks (bit `i` ⇔ slot `i`) of the full squares, by radius.
const SQUARE_MASKS: [u128; MAX_RADIUS + 1] = square_masks();

const fn square_masks() -> [u128; MAX_RADIUS + 1] {
    let mut masks = [0; MAX_RADIUS + 1];
    let mut r = 0;
    while r <= MAX_RADIUS {
        let ri = r as i32;
        let mut dy = -ri;
        while dy <= ri {
            let mut dx = -ri;
            while dx <= ri {
                masks[r] |= 1 << slot(dx, dy);
                dx += 1;
            }
            dy += 1;
        }
        r += 1;
    }
    masks
}

/// Slot mask of the `CON_4` cross.
const CON4_MASK: u128 = {
    let mut mask = 0;
    let mut i = 0;
    while i < CON4_OFFSETS.len() {
        mask |= 1 << slot(CON4_OFFSETS[i].x, CON4_OFFSETS[i].y);
        i += 1;
    }
    mask
};

/// The slots `shape` occupies, as a bit mask.
const fn shape_mask(shape: Connectivity) -> u128 {
    match shape {
        Connectivity::Con4 => CON4_MASK,
        _ => SQUARE_MASKS[shape.radius()],
    }
}

/// The `shape.lines()` lines of `frame` centred on row `y`, in the first
/// `shape.lines()` entries. Lines past the top or bottom edge repeat the
/// edge line, as the IIM re-delivers it (§3.1).
///
/// # Panics
///
/// Panics for an empty frame or a shape wider than [`MAX_LINES`] lines.
pub(crate) fn clamped_lines(frame: &Frame, y: i32, shape: Connectivity) -> [&[Pixel]; MAX_LINES] {
    assert_fits(shape);
    let r = shape.radius() as i32;
    let last = frame.dims().height as i32 - 1;
    let mut lines: [&[Pixel]; MAX_LINES] = [&[]; MAX_LINES];
    for (dy, line) in (-r..=r).zip(&mut lines) {
        *line = frame.line((y + dy).clamp(0, last) as usize);
    }
    lines
}

/// Panics unless a window of `shape` fits the [`MAX_LINES`] square.
fn assert_fits(shape: Connectivity) {
    assert!(
        shape.radius() <= MAX_RADIUS,
        "a window spans at most {MAX_LINES} lines, {shape} is wider"
    );
}

/// A materialised neighbourhood: the window of pixels around one centre
/// position, as delivered to a pixel operation.
///
/// This is the Process Unit's *matrix register* (§3.5), for the software
/// AddressLib and the simulated engine alike, and it is held the way the
/// hardware holds it: a fixed `MAX_LINES × MAX_LINES` buffer (no heap
/// allocation) with one slot per offset, plus a mask of the slots that
/// hold a sample, which leaves out the slots outside the shape. It is
/// filled only by the two §3.5 instructions: [`Window::load`] fills the
/// whole window from `2r+1` lines and [`Window::shift`] moves it one
/// pixel along them. Borders clamp: lines and columns past the frame
/// repeat the edge line and the edge column, as the IIM re-delivers them
/// (§3.1).
///
/// # Panics
///
/// Every constructor panics for a shape wider than [`MAX_LINES`] lines.
#[derive(Clone)]
pub struct Window {
    centre: Point,
    shape: Connectivity,
    /// Row-major buffer; offset `(dx, dy)` lives in slot [`slot`]`(dx, dy)`.
    pixels: [Pixel; WINDOW_SLOTS],
    /// Bit `i` set ⇔ slot `i` holds a delivered sample.
    present: u128,
}

impl Window {
    /// An empty window (no sample present) of `shape` around `centre`.
    pub(crate) fn empty(centre: Point, shape: Connectivity) -> Window {
        assert_fits(shape);
        Window {
            centre,
            shape,
            pixels: [Pixel::default(); WINDOW_SLOTS],
            present: 0,
        }
    }

    /// Gathers the window of `shape` around `centre` from `frame`: a
    /// [`Window::load`] from the `2r+1` frame lines centred on
    /// `centre.y`, clamped at the frame edges.
    ///
    /// # Panics
    ///
    /// Panics for an empty frame or a shape wider than [`MAX_LINES`]
    /// lines.
    #[must_use]
    pub fn gather(frame: &Frame, centre: Point, shape: Connectivity) -> Window {
        let lines = clamped_lines(frame, centre.y, shape);
        Window::load(centre, shape, &lines[..shape.lines()])
    }

    /// LOAD (§3.5: *"fill the whole matrix from scratch"*): the window
    /// of `shape` around `centre`, read from `lines`, the
    /// `shape.lines()` lines centred on `centre.y` (line `radius` is the
    /// centre line). Columns beyond either end of the lines clamp to the
    /// edge column.
    ///
    /// # Panics
    ///
    /// Panics when the shape is wider than [`MAX_LINES`] lines or
    /// `lines` holds fewer than `shape.lines()` non-empty lines.
    #[must_use]
    pub fn load(centre: Point, shape: Connectivity, lines: &[&[Pixel]]) -> Window {
        let mut window = Window::empty(centre, shape);
        let r = shape.radius() as i32;
        assert!(
            lines.len() >= shape.lines(),
            "LOAD needs {} lines",
            shape.lines()
        );
        let last = lines[0].len() as i32 - 1;
        for (dy, line) in (-r..=r).zip(lines) {
            for dx in -r..=r {
                window.pixels[slot(dx, dy)] = line[(centre.x + dx).clamp(0, last) as usize];
            }
        }
        window.present = shape_mask(shape);
        window
    }

    /// SHIFT (§3.5: *"only add some pixels shifting the pixels that were
    /// already in the matrix"*): moves the window one pixel right along
    /// `lines`, the lines it was [`Window::load`]ed from. The leftmost
    /// column drops out and the column entering on the right is read,
    /// clamped to the edge column beyond either end of the lines.
    ///
    /// # Panics
    ///
    /// Panics when `lines` holds fewer than `self.shape().lines()`
    /// non-empty lines.
    #[inline]
    pub fn shift(&mut self, lines: &[&[Pixel]]) {
        self.centre.x += 1;
        let last = lines[0].len() as i32 - 1;
        let col = (self.centre.x + self.shape.radius() as i32).clamp(0, last) as usize;
        match self.shape.radius() {
            0 => self.shift_in::<0>(lines, col),
            1 => self.shift_in::<1>(lines, col),
            2 => self.shift_in::<2>(lines, col),
            3 => self.shift_in::<3>(lines, col),
            _ => self.shift_in::<MAX_RADIUS>(lines, col),
        }
    }

    /// [`Window::shift`] for radius `R`, so every move has a constant size.
    #[inline]
    fn shift_in<const R: usize>(&mut self, lines: &[&[Pixel]], col: usize) {
        let r = R as i32;
        for (dy, line) in (-r..=r).zip(&lines[..2 * R + 1]) {
            let first = slot(-r, dy);
            self.pixels.copy_within(first + 1..=first + 2 * R, first);
            self.pixels[first + 2 * R] = line[col];
        }
    }

    /// Builds a window from individual `(offset, pixel)` samples, without
    /// LOAD or SHIFT — the way to state a window by its definition, as
    /// reference checks of the sweeps do.
    ///
    /// Samples whose offsets are not part of `shape` are discarded, so a
    /// full-square sample set can back any sub-shape. A repeated offset
    /// keeps its last sample.
    #[must_use]
    pub fn from_samples(
        centre: Point,
        shape: Connectivity,
        samples: impl IntoIterator<Item = (Point, Pixel)>,
    ) -> Window {
        let mut window = Window::empty(centre, shape);
        for (off, px) in samples {
            if shape.contains_offset(off) {
                let i = slot(off.x, off.y);
                window.pixels[i] = px;
                window.present |= 1 << i;
            }
        }
        window
    }

    /// The centre position in the source frame.
    #[must_use]
    pub const fn centre(&self) -> Point {
        self.centre
    }

    /// The shape this window was gathered with.
    #[must_use]
    pub const fn shape(&self) -> Connectivity {
        self.shape
    }

    /// The pixel at the centre offset.
    ///
    /// # Panics
    ///
    /// Panics if the centre sample is missing, which only a
    /// [`Window::from_samples`] window given no centre sample lacks.
    #[must_use]
    #[inline]
    pub fn centre_pixel(&self) -> Pixel {
        self.sample(Point::ORIGIN)
            .expect("a loaded window always holds its centre")
    }

    /// The pixel at relative offset `off`, if present — O(1).
    #[must_use]
    #[inline]
    pub fn sample(&self, off: Point) -> Option<Pixel> {
        let r = MAX_RADIUS as i32;
        if off.x.abs() > r || off.y.abs() > r {
            return None;
        }
        let i = slot(off.x, off.y);
        (self.present >> i & 1 == 1).then(|| self.pixels[i])
    }

    /// Number of delivered samples.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// Whether no samples were delivered (only possible for a
    /// [`Window::from_samples`] window given none in its shape).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Iterates over `(offset, pixel)` samples in row-major offset order.
    #[must_use]
    #[inline]
    pub fn iter(&self) -> Samples<'_> {
        Samples {
            pixels: &self.pixels,
            present: self.present,
        }
    }

    /// Iterates over the sample pixels only.
    #[inline]
    pub fn pixels(&self) -> impl Iterator<Item = Pixel> + '_ {
        self.iter().map(|(_, p)| p)
    }

    /// Minimum and maximum luminance over the window, or `None` if empty.
    #[must_use]
    pub fn luma_min_max(&self) -> Option<(u8, u8)> {
        let mut it = self.pixels();
        let first = it.next()?.y;
        let (mut lo, mut hi) = (first, first);
        for p in it {
            lo = lo.min(p.y);
            hi = hi.max(p.y);
        }
        Some((lo, hi))
    }
}

/// Windows are equal when they have the same centre and shape and
/// deliver the same samples; slots without a sample are not compared.
impl PartialEq for Window {
    fn eq(&self, other: &Self) -> bool {
        self.centre == other.centre
            && self.shape == other.shape
            && self.present == other.present
            && self.pixels().eq(other.pixels())
    }
}

impl Eq for Window {}

impl fmt::Debug for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Window")
            .field("centre", &self.centre)
            .field("shape", &self.shape)
            .field("samples", &self.iter())
            .finish()
    }
}

/// Iterator over a window's `(offset, pixel)` samples in row-major offset
/// order (see [`Window::iter`]).
#[derive(Clone)]
pub struct Samples<'a> {
    pixels: &'a [Pixel; WINDOW_SLOTS],
    /// Slots still to visit.
    present: u128,
}

impl Iterator for Samples<'_> {
    type Item = (Point, Pixel);

    #[inline]
    fn next(&mut self) -> Option<(Point, Pixel)> {
        // An empty mask has 128 trailing zeros, past the last slot.
        let i = self.present.trailing_zeros() as usize;
        let px = *self.pixels.get(i)?;
        self.present &= self.present - 1;
        Some((SLOT_OFFSETS[i], px))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.present.count_ones() as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Samples<'_> {}

impl fmt::Debug for Samples<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl<'a> IntoIterator for &'a Window {
    type Item = (Point, Pixel);
    type IntoIter = Samples<'a>;

    fn into_iter(self) -> Samples<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;

    fn ramp() -> Frame {
        Frame::from_fn(Dims::new(5, 5), |p| Pixel::from_luma((p.y * 5 + p.x) as u8))
    }

    #[test]
    fn offset_counts() {
        assert_eq!(Connectivity::Con0.offsets().len(), 1);
        assert_eq!(Connectivity::Con4.offsets().len(), 5);
        assert_eq!(Connectivity::Con8.offsets().len(), 9);
        assert_eq!(Connectivity::Square(2).offsets().len(), 25);
        assert_eq!(Connectivity::Square(4).offsets().len(), 81);
    }

    #[test]
    fn centre_always_included() {
        for c in [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(3),
        ] {
            assert!(c.offsets().contains(&Point::ORIGIN), "{c}");
            assert!(!c.expansion_offsets().contains(&Point::ORIGIN), "{c}");
        }
    }

    /// The clamped window by definition: each sample is the frame pixel
    /// at the offset point clamped into the frame.
    fn clamped_reference(f: &Frame, centre: Point, shape: Connectivity) -> Window {
        let samples = shape
            .offsets_iter()
            .map(|off| (off, f.get(f.dims().clamp(centre + off).unwrap())));
        Window::from_samples(centre, shape, samples)
    }

    #[test]
    fn gather_matches_clamped_samples_everywhere() {
        // Interior, border and out-of-frame centres, sparse shapes and
        // windows wider than the frame.
        let f = ramp();
        for shape in [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(2),
            Connectivity::Square(4),
        ] {
            for y in -2..7 {
                for x in -2..7 {
                    let p = Point::new(x, y);
                    let gathered = Window::gather(&f, p, shape);
                    assert_eq!(gathered, clamped_reference(&f, p, shape), "{shape} {p}");
                    assert_eq!(gathered.len(), shape.offset_count(), "{shape} {p}");
                }
            }
        }
    }

    #[test]
    fn shift_equals_load_everywhere() {
        // A row swept by one LOAD and SHIFTs holds, at every pixel, the
        // window a fresh LOAD there holds; and both match the definition.
        let f = ramp();
        for shape in [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(2),
            Connectivity::Square(4),
        ] {
            for y in 0..5 {
                let lines = clamped_lines(&f, y, shape);
                let lines = &lines[..shape.lines()];
                let mut swept = Window::load(Point::new(-2, y), shape, lines);
                for x in -1..7 {
                    swept.shift(lines);
                    let p = Point::new(x, y);
                    assert_eq!(swept.centre(), p);
                    assert_eq!(swept, Window::load(p, shape, lines), "{shape} {p}");
                    assert_eq!(swept, clamped_reference(&f, p, shape), "{shape} {p}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 9 lines")]
    fn gather_rejects_shapes_wider_than_nine_lines() {
        let _ = Window::gather(&ramp(), Point::ORIGIN, Connectivity::Square(5));
    }

    #[test]
    fn check_span_types_wide_shapes() {
        assert!(Connectivity::Square(4).check_span().is_ok());
        assert!(matches!(
            Connectivity::Square(5).check_span(),
            Err(CoreError::InvalidParameter { name: "shape", .. })
        ));
    }

    #[test]
    fn offsets_iter_matches_offsets_everywhere() {
        for c in [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(2),
            Connectivity::Square(4),
        ] {
            let vec = c.offsets();
            let iter: Vec<Point> = c.offsets_iter().collect();
            assert_eq!(iter, vec, "{c}");
            assert_eq!(c.offsets_iter().len(), c.offset_count(), "{c}");
            // O(1) membership agrees with the list on a superset of points.
            for y in -5..=5 {
                for x in -5..=5 {
                    let p = Point::new(x, y);
                    assert_eq!(c.contains_offset(p), vec.contains(&p), "{c} at {p}");
                }
            }
        }
    }

    #[test]
    fn radius_and_lines_match_paper_limit() {
        assert_eq!(Connectivity::Con8.lines(), 3);
        assert_eq!(Connectivity::Square(4).lines(), MAX_LINES);
        assert_eq!(MAX_LINES, 9); // §3.1: nine lines max
        assert!(Connectivity::Square(4).check_span().is_ok());
        assert!(Connectivity::Square(5).check_span().is_err());
    }

    #[test]
    fn new_pixels_per_step_for_table2_model() {
        // CON_8 sliding horizontally loads one new 3-pixel column per step.
        assert_eq!(Connectivity::Con8.new_pixels_per_step(), 3);
        assert_eq!(Connectivity::Con0.new_pixels_per_step(), 1);
        assert_eq!(Connectivity::Square(2).new_pixels_per_step(), 5);
    }

    #[test]
    fn gather_interior_full_window() {
        let f = ramp();
        let w = Window::gather(&f, Point::new(2, 2), Connectivity::Con8);
        assert_eq!(w.len(), 9);
        assert_eq!(w.centre_pixel().y, 12);
        assert_eq!(w.sample(Point::new(-1, -1)).unwrap().y, 6);
        assert_eq!(w.sample(Point::new(1, 1)).unwrap().y, 18);
        assert_eq!(w.sample(Point::new(2, 2)), None); // outside shape
    }

    #[test]
    fn gather_corner_clamps() {
        let f = ramp();
        let w = Window::gather(&f, Point::ORIGIN, Connectivity::Con8);
        assert_eq!(w.len(), 9);
        // North-west neighbour clamps to (0,0).
        assert_eq!(w.sample(Point::new(-1, -1)).unwrap().y, 0);
    }

    #[test]
    fn luma_min_max() {
        let f = ramp();
        let w = Window::gather(&f, Point::new(2, 2), Connectivity::Con8);
        assert_eq!(w.luma_min_max(), Some((6, 18)));
        let empty = Window::empty(Point::ORIGIN, Connectivity::Con0);
        assert_eq!(empty.luma_min_max(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn window_iteration() {
        let f = ramp();
        let w = Window::gather(&f, Point::new(1, 1), Connectivity::Con4);
        assert_eq!(w.iter().count(), 5);
        assert_eq!((&w).into_iter().count(), 5);
        assert_eq!(w.pixels().count(), 5);
        assert_eq!(w.shape(), Connectivity::Con4);
        assert_eq!(w.centre(), Point::new(1, 1));
    }

    #[test]
    fn from_samples_matches_gather() {
        let f = ramp();
        let centre = Point::new(2, 2);
        let direct = Window::gather(&f, centre, Connectivity::Con8);
        let rebuilt = Window::from_samples(centre, Connectivity::Con8, direct.iter());
        assert_eq!(rebuilt, direct);
    }

    #[test]
    fn from_samples_filters_to_shape() {
        let f = ramp();
        let centre = Point::new(2, 2);
        // Gather the full square, rebuild as CON_4: extra corners dropped.
        let square = Window::gather(&f, centre, Connectivity::Con8);
        let cross = Window::from_samples(centre, Connectivity::Con4, square.iter());
        assert_eq!(cross.len(), 5);
        let direct = Window::gather(&f, centre, Connectivity::Con4);
        for off in Connectivity::Con4.offsets() {
            assert_eq!(cross.sample(off), direct.sample(off), "offset {off}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Connectivity::Con0.to_string(), "CON_0");
        assert_eq!(Connectivity::Con8.to_string(), "CON_8");
        assert_eq!(Connectivity::Square(3).to_string(), "SQ_3");
    }
}
