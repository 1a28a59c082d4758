//! Border policies: how neighbourhood accesses that step outside the frame
//! are resolved.
//!
//! The AddressLib processes whole rectangular frames, so any neighbourhood
//! operation needs a rule for pixels whose window sticks out of the image.
//!
//! # Examples
//!
//! ```
//! use vip_core::border::BorderPolicy;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::{Dims, Point};
//! use vip_core::pixel::Pixel;
//!
//! let f = Frame::from_fn(Dims::new(3, 1), |p| Pixel::from_luma(p.x as u8));
//! let clamped = BorderPolicy::Clamp.resolve(&f, Point::new(-2, 0));
//! assert_eq!(clamped.unwrap().y, 0);
//! ```

use core::fmt;

use crate::frame::Frame;
use crate::geometry::{Dims, Point};
use crate::pixel::Pixel;

/// Policy for out-of-frame neighbourhood accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum BorderPolicy {
    /// Replicate the nearest edge pixel (the hardware's behaviour: the IIM
    /// simply re-delivers the boundary line).
    #[default]
    Clamp,
    /// Mirror the image at its edges (without repeating the edge pixel).
    Mirror,
    /// Wrap around torus-style.
    Wrap,
    /// Substitute a constant pixel.
    Constant(Pixel),
    /// Skip: out-of-frame neighbours are simply not delivered. The operation
    /// sees a smaller window near the border.
    Skip,
}

impl BorderPolicy {
    /// Maps an arbitrary position to an in-frame position according to the
    /// policy, or `None` when the access produces no pixel position
    /// ([`BorderPolicy::Constant`] and [`BorderPolicy::Skip`]).
    ///
    /// In-bounds positions are always returned unchanged.
    #[must_use]
    pub fn map_point(self, dims: Dims, p: Point) -> Option<Point> {
        if dims.contains(p) {
            return Some(p);
        }
        if dims.is_empty() {
            return None;
        }
        match self {
            BorderPolicy::Clamp => dims.clamp(p),
            BorderPolicy::Mirror => Some(Point::new(
                mirror_coord(p.x, dims.width),
                mirror_coord(p.y, dims.height),
            )),
            BorderPolicy::Wrap => Some(Point::new(
                wrap_coord(p.x, dims.width),
                wrap_coord(p.y, dims.height),
            )),
            BorderPolicy::Constant(_) | BorderPolicy::Skip => None,
        }
    }

    /// Resolves the pixel value at `p` in `frame` under this policy.
    ///
    /// Returns `None` only for [`BorderPolicy::Skip`] accesses outside the
    /// frame.
    #[must_use]
    pub fn resolve(self, frame: &Frame, p: Point) -> Option<Pixel> {
        if let Some(q) = self.map_point(frame.dims(), p) {
            return Some(frame.get(q));
        }
        match self {
            BorderPolicy::Constant(px) => Some(px),
            _ => None,
        }
    }
}

impl fmt::Display for BorderPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BorderPolicy::Clamp => f.write_str("clamp"),
            BorderPolicy::Mirror => f.write_str("mirror"),
            BorderPolicy::Wrap => f.write_str("wrap"),
            BorderPolicy::Constant(p) => write!(f, "constant({p})"),
            BorderPolicy::Skip => f.write_str("skip"),
        }
    }
}

/// Mirrors a coordinate into `[0, extent)` without repeating the edge
/// sample (reflect-101 for |c| < extent, with general folding beyond).
fn mirror_coord(c: i32, extent: usize) -> i32 {
    let n = extent as i64;
    if n == 1 {
        return 0;
    }
    let period = 2 * (n - 1);
    let mut m = (c as i64).rem_euclid(period);
    if m >= n {
        m = period - m;
    }
    m as i32
}

/// Wraps a coordinate into `[0, extent)`.
fn wrap_coord(c: i32, extent: usize) -> i32 {
    (c as i64).rem_euclid(extent as i64) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        // 4x1 luminance ramp 0,10,20,30
        Frame::from_fn(Dims::new(4, 1), |p| Pixel::from_luma(p.x as u8 * 10))
    }

    #[test]
    fn in_bounds_identity_for_all_policies() {
        let f = frame();
        for pol in [
            BorderPolicy::Clamp,
            BorderPolicy::Mirror,
            BorderPolicy::Wrap,
            BorderPolicy::Constant(Pixel::WHITE),
            BorderPolicy::Skip,
        ] {
            let p = Point::new(2, 0);
            assert_eq!(pol.resolve(&f, p).unwrap().y, 20, "{pol}");
        }
    }

    #[test]
    fn clamp_replicates_edges() {
        let f = frame();
        assert_eq!(
            BorderPolicy::Clamp
                .resolve(&f, Point::new(-3, 0))
                .unwrap()
                .y,
            0
        );
        assert_eq!(
            BorderPolicy::Clamp.resolve(&f, Point::new(9, 0)).unwrap().y,
            30
        );
        assert_eq!(
            BorderPolicy::Clamp.resolve(&f, Point::new(1, 5)).unwrap().y,
            10
        );
    }

    #[test]
    fn mirror_reflects_without_edge_repeat() {
        let f = frame();
        // x = -1 mirrors to 1, x = 4 mirrors to 2.
        assert_eq!(
            BorderPolicy::Mirror
                .resolve(&f, Point::new(-1, 0))
                .unwrap()
                .y,
            10
        );
        assert_eq!(
            BorderPolicy::Mirror
                .resolve(&f, Point::new(4, 0))
                .unwrap()
                .y,
            20
        );
        // Deep reflection: x = -4 → 4 → period fold → 2.
        assert_eq!(mirror_coord(-4, 4), 2);
        assert_eq!(mirror_coord(0, 1), 0);
        assert_eq!(mirror_coord(7, 1), 0);
    }

    #[test]
    fn wrap_is_torus() {
        let f = frame();
        assert_eq!(
            BorderPolicy::Wrap.resolve(&f, Point::new(-1, 0)).unwrap().y,
            30
        );
        assert_eq!(
            BorderPolicy::Wrap.resolve(&f, Point::new(5, 0)).unwrap().y,
            10
        );
    }

    #[test]
    fn constant_substitutes() {
        let f = frame();
        let pol = BorderPolicy::Constant(Pixel::from_luma(99));
        assert_eq!(pol.resolve(&f, Point::new(-1, 0)).unwrap().y, 99);
        assert_eq!(pol.map_point(f.dims(), Point::new(-1, 0)), None);
    }

    #[test]
    fn skip_returns_none_outside() {
        let f = frame();
        assert_eq!(BorderPolicy::Skip.resolve(&f, Point::new(-1, 0)), None);
        assert!(BorderPolicy::Skip.resolve(&f, Point::new(0, 0)).is_some());
    }

    #[test]
    fn empty_frame_maps_nothing() {
        assert_eq!(
            BorderPolicy::Clamp.map_point(Dims::new(0, 0), Point::ORIGIN),
            None
        );
    }

    #[test]
    fn mapped_points_always_in_bounds() {
        let dims = Dims::new(5, 3);
        for pol in [
            BorderPolicy::Clamp,
            BorderPolicy::Mirror,
            BorderPolicy::Wrap,
        ] {
            for x in -12..12 {
                for y in -12..12 {
                    let q = pol.map_point(dims, Point::new(x, y)).unwrap();
                    assert!(dims.contains(q), "{pol} mapped ({x},{y}) to {q}");
                }
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(BorderPolicy::Clamp.to_string(), "clamp");
        assert!(BorderPolicy::Constant(Pixel::BLACK)
            .to_string()
            .starts_with("constant("));
    }
}
