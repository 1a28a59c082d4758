//! The frame container: a row-major grid of 64-bit [`Pixel`]s.
//!
//! A [`Frame`] is the unit of data that an AddressLib call reads and writes.
//! The AddressEngine board stores *two input and one output* frame of either
//! QCIF or CIF format in its ZBT memory (§3.1 of the paper).
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::{Dims, Point};
//! use vip_core::pixel::Pixel;
//!
//! let mut frame = Frame::filled(Dims::new(8, 8), Pixel::from_luma(10));
//! frame.set(Point::new(3, 4), Pixel::from_luma(200));
//! assert_eq!(frame.get(Point::new(3, 4)).y, 200);
//! ```

use core::fmt;

use crate::error::{CoreError, CoreResult};
use crate::geometry::{Dims, ImageFormat, Point};
use crate::pixel::{Channel, Pixel};

/// A row-major frame of [`Pixel`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    dims: Dims,
    data: Vec<Pixel>,
}

impl Frame {
    /// Creates a frame of the given size with all pixels defaulted
    /// (black, zero side channels).
    ///
    /// # Examples
    ///
    /// ```
    /// use vip_core::frame::Frame;
    /// use vip_core::geometry::Dims;
    /// let f = Frame::new(Dims::new(2, 2));
    /// assert_eq!(f.pixel_count(), 4);
    /// ```
    #[must_use]
    pub fn new(dims: Dims) -> Self {
        Frame::filled(dims, Pixel::default())
    }

    /// Creates a frame with every pixel set to `fill`.
    #[must_use]
    pub fn filled(dims: Dims, fill: Pixel) -> Self {
        Frame {
            dims,
            data: vec![fill; dims.pixel_count()],
        }
    }

    /// Creates a frame by evaluating `f` at every position (row-major).
    ///
    /// # Examples
    ///
    /// ```
    /// use vip_core::frame::Frame;
    /// use vip_core::geometry::Dims;
    /// use vip_core::pixel::Pixel;
    ///
    /// let ramp = Frame::from_fn(Dims::new(4, 1), |p| Pixel::from_luma(p.x as u8 * 10));
    /// assert_eq!(ramp.get((2, 0).into()).y, 20);
    /// ```
    #[must_use]
    pub fn from_fn(dims: Dims, mut f: impl FnMut(Point) -> Pixel) -> Self {
        let mut data = Vec::with_capacity(dims.pixel_count());
        for y in 0..dims.height as i32 {
            for x in 0..dims.width as i32 {
                data.push(f(Point::new(x, y)));
            }
        }
        Frame { dims, data }
    }

    /// Creates a frame from an existing pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `data.len()` does not
    /// equal `dims.pixel_count()`.
    pub fn from_pixels(dims: Dims, data: Vec<Pixel>) -> CoreResult<Self> {
        if data.len() != dims.pixel_count() {
            return Err(CoreError::InvalidParameter {
                name: "data",
                reason: "pixel buffer length must equal dims.pixel_count()",
            });
        }
        Ok(Frame { dims, data })
    }

    /// Creates a luminance-only frame from 8-bit grey samples
    /// (chroma neutral, side channels zero).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `luma.len()` does not
    /// equal `dims.pixel_count()`.
    pub fn from_luma(dims: Dims, luma: &[u8]) -> CoreResult<Self> {
        if luma.len() != dims.pixel_count() {
            return Err(CoreError::InvalidParameter {
                name: "luma",
                reason: "luma buffer length must equal dims.pixel_count()",
            });
        }
        Ok(Frame {
            dims,
            data: luma.iter().map(|&y| Pixel::from_luma(y)).collect(),
        })
    }

    /// Frame dimensions.
    #[must_use]
    pub const fn dims(&self) -> Dims {
        self.dims
    }

    /// Frame width in pixels.
    #[must_use]
    pub const fn width(&self) -> usize {
        self.dims.width
    }

    /// Frame height in pixels (lines).
    #[must_use]
    pub const fn height(&self) -> usize {
        self.dims.height
    }

    /// Total number of pixels.
    #[must_use]
    pub const fn pixel_count(&self) -> usize {
        self.dims.pixel_count()
    }

    /// Detected standard format, if the dimensions match one.
    #[must_use]
    pub fn format(&self) -> Option<ImageFormat> {
        ImageFormat::from_dims(self.dims)
    }

    /// Reads the pixel at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    #[must_use]
    pub fn get(&self, p: Point) -> Pixel {
        self.data[self.dims.index_of(p)]
    }

    /// Writes the pixel at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    pub fn set(&mut self, p: Point, pixel: Pixel) {
        let idx = self.dims.index_of(p);
        self.data[idx] = pixel;
    }

    /// Mutable access to the pixel at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    pub fn get_mut(&mut self, p: Point) -> &mut Pixel {
        let idx = self.dims.index_of(p);
        &mut self.data[idx]
    }

    /// Borrows one line (row) of pixels.
    ///
    /// # Panics
    ///
    /// Panics if `line >= height`.
    #[must_use]
    pub fn line(&self, line: usize) -> &[Pixel] {
        assert!(line < self.dims.height, "line {line} out of bounds");
        let start = line * self.dims.width;
        &self.data[start..start + self.dims.width]
    }

    /// The whole pixel buffer in row-major order.
    #[must_use]
    pub fn pixels(&self) -> &[Pixel] {
        &self.data
    }

    /// Mutable view of the whole pixel buffer in row-major order.
    pub fn pixels_mut(&mut self) -> &mut [Pixel] {
        &mut self.data
    }

    /// Iterates over `(Point, Pixel)` pairs in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = (Point, Pixel)> + '_ {
        let w = self.dims.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &px)| (Point::new((i % w) as i32, (i / w) as i32), px))
    }

    /// Extracts one channel as a plane of widened samples.
    #[must_use]
    pub fn channel_plane(&self, channel: Channel) -> Vec<u16> {
        self.data.iter().map(|p| p.channel(channel)).collect()
    }

    /// Extracts the luminance plane as bytes (useful for image I/O).
    #[must_use]
    pub fn luma_plane(&self) -> Vec<u8> {
        self.data.iter().map(|p| p.y).collect()
    }

    /// Sum of absolute luminance differences against another frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimsMismatch`] when the frames differ in size.
    pub fn luma_sad(&self, other: &Frame) -> CoreResult<u64> {
        if self.dims != other.dims {
            return Err(CoreError::DimsMismatch {
                left: self.dims,
                right: other.dims,
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| u64::from(a.y.abs_diff(b.y)))
            .sum())
    }

    /// Mean luminance of the frame (0 for an empty frame).
    #[must_use]
    pub fn mean_luma(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|p| f64::from(p.y)).sum::<f64>() / self.data.len() as f64
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({})", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::ChannelSet;

    fn ramp(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_luma((p.y as usize * dims.width + p.x as usize) as u8)
        })
    }

    #[test]
    fn new_is_black() {
        let f = Frame::new(Dims::new(3, 2));
        assert_eq!(f.pixel_count(), 6);
        assert!(f.pixels().iter().all(|&p| p == Pixel::default()));
    }

    #[test]
    fn from_fn_row_major() {
        let f = ramp(Dims::new(4, 2));
        assert_eq!(f.get(Point::new(0, 0)).y, 0);
        assert_eq!(f.get(Point::new(3, 0)).y, 3);
        assert_eq!(f.get(Point::new(0, 1)).y, 4);
    }

    #[test]
    fn from_pixels_validates_length() {
        let err = Frame::from_pixels(Dims::new(2, 2), vec![Pixel::default(); 3]);
        assert!(err.is_err());
        let ok = Frame::from_pixels(Dims::new(2, 2), vec![Pixel::default(); 4]);
        assert!(ok.is_ok());
    }

    #[test]
    fn from_luma_roundtrip() {
        let f = Frame::from_luma(Dims::new(2, 2), &[1, 2, 3, 4]).unwrap();
        assert_eq!(f.luma_plane(), vec![1, 2, 3, 4]);
        assert!(Frame::from_luma(Dims::new(2, 2), &[1]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut f = Frame::new(Dims::new(2, 2));
        let p = Pixel::new(1, 2, 3, 4, 5);
        f.set(Point::new(1, 1), p);
        assert_eq!(f.get(Point::new(1, 1)), p);
        f.get_mut(Point::new(0, 0)).y = 9;
        assert_eq!(f.get(Point::new(0, 0)).y, 9);
    }

    #[test]
    fn line_access() {
        let f = ramp(Dims::new(3, 2));
        assert_eq!(f.line(1).iter().map(|p| p.y).collect::<Vec<_>>(), [3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn line_out_of_bounds_panics() {
        let f = Frame::new(Dims::new(2, 2));
        let _ = f.line(2);
    }

    #[test]
    fn enumerate_visits_all_row_major() {
        let f = ramp(Dims::new(3, 2));
        let pts: Vec<_> = f.enumerate().map(|(p, px)| (p, px.y)).collect();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], (Point::new(0, 0), 0));
        assert_eq!(pts[4], (Point::new(1, 1), 4));
    }

    #[test]
    fn channel_plane_extraction() {
        let f = Frame::filled(Dims::new(2, 1), Pixel::new(1, 2, 3, 4, 5));
        assert_eq!(f.channel_plane(Channel::Aux), vec![5, 5]);
        assert_eq!(f.channel_plane(Channel::U), vec![2, 2]);
    }

    #[test]
    fn luma_sad_and_mean() {
        let a = Frame::filled(Dims::new(2, 2), Pixel::from_luma(10));
        let b = Frame::filled(Dims::new(2, 2), Pixel::from_luma(13));
        assert_eq!(a.luma_sad(&b).unwrap(), 12);
        assert!(a.luma_sad(&Frame::new(Dims::new(1, 1))).is_err());
        assert!((a.mean_luma() - 10.0).abs() < 1e-9);
        assert_eq!(Frame::new(Dims::new(0, 0)).mean_luma(), 0.0);
    }

    #[test]
    fn merge_channels_on_frame_pixels() {
        let mut f = Frame::filled(Dims::new(1, 1), Pixel::new(1, 2, 3, 4, 5));
        let src = Pixel::new(9, 9, 9, 9, 9);
        f.get_mut(Point::ORIGIN)
            .merge_channels(src, ChannelSet::ALPHA);
        assert_eq!(f.get(Point::ORIGIN), Pixel::new(1, 2, 3, 9, 5));
    }

    #[test]
    fn display() {
        assert_eq!(Frame::new(Dims::new(3, 2)).to_string(), "Frame(3x2)");
    }
}
