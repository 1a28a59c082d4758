//! Image pyramids for coarse-to-fine estimation.
//!
//! Each level is produced by a binomial smoothing pass — an AddressLib
//! intra call dispatched through the backend, exactly the FIR-filter
//! workload of §2.1 — followed by host-side 2× decimation.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::pixel::Pixel;
//! use vip_gme::backend::SoftwareBackend;
//! use vip_gme::pyramid::Pyramid;
//!
//! let f = Frame::filled(Dims::new(64, 48), Pixel::from_luma(70));
//! let mut backend = SoftwareBackend::new();
//! let pyr = Pyramid::build(&f, 3, &mut backend)?;
//! assert_eq!(pyr.levels(), 3);
//! assert_eq!(pyr.level(2).width(), 16);
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use vip_core::error::{CoreError, CoreResult};
use vip_core::frame::Frame;
use vip_core::geometry::Point;
use vip_core::ops::filter::Binomial3;

use crate::backend::GmeBackend;

/// Minimum side length of the coarsest pyramid level.
pub const MIN_LEVEL_SIDE: usize = 8;

/// A Gaussian image pyramid, level 0 being the full resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Pyramid {
    levels: Vec<Frame>,
}

impl Pyramid {
    /// Builds a pyramid of up to `max_levels` levels, stopping early when
    /// the next level would fall below [`MIN_LEVEL_SIDE`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyFrame`] for zero-area frames and
    /// [`CoreError::InvalidParameter`] when `max_levels` is zero.
    pub fn build(
        frame: &Frame,
        max_levels: usize,
        backend: &mut dyn GmeBackend,
    ) -> CoreResult<Pyramid> {
        if max_levels == 0 {
            return Err(CoreError::InvalidParameter {
                name: "max_levels",
                reason: "a pyramid needs at least one level",
            });
        }
        if frame.dims().is_empty() {
            return Err(CoreError::EmptyFrame);
        }
        let mut levels = vec![frame.clone()];
        while levels.len() < max_levels {
            let prev = levels.last().expect("non-empty");
            let next_dims = prev.dims().halved();
            if next_dims.width < MIN_LEVEL_SIDE || next_dims.height < MIN_LEVEL_SIDE {
                break;
            }
            // AddressLib intra call: binomial smoothing before decimation.
            let smoothed = backend.intra(prev, &Binomial3::new())?;
            levels.push(decimate(&smoothed));
        }
        Ok(Pyramid { levels })
    }

    /// Number of levels actually built.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Level `i` (0 = full resolution).
    ///
    /// # Panics
    ///
    /// Panics when `i >= levels()`.
    #[must_use]
    pub fn level(&self, i: usize) -> &Frame {
        &self.levels[i]
    }
}

/// 2× decimation (every second pixel of every second line).
#[must_use]
pub fn decimate(frame: &Frame) -> Frame {
    let dims = frame.dims().halved();
    Frame::from_fn(dims, |p| frame.get(Point::new(p.x * 2, p.y * 2)))
}

/// The scale factor between level `i` and level 0.
#[must_use]
pub fn level_scale(i: usize) -> f64 {
    (1u64 << i) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SoftwareBackend;
    use vip_core::geometry::Dims;
    use vip_core::pixel::Pixel;

    fn textured(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 13 + p.y * 29) % 256) as u8)
        })
    }

    #[test]
    fn pyramid_halves_dimensions() {
        let f = textured(Dims::new(64, 48));
        let mut b = SoftwareBackend::new();
        let p = Pyramid::build(&f, 3, &mut b).unwrap();
        assert_eq!(p.levels(), 3);
        assert_eq!(p.level(0).dims(), Dims::new(64, 48));
        assert_eq!(p.level(1).dims(), Dims::new(32, 24));
        assert_eq!(p.level(2).dims(), Dims::new(16, 12));
    }

    #[test]
    fn pyramid_counts_intra_calls() {
        let f = textured(Dims::new(64, 64));
        let mut b = SoftwareBackend::new();
        let _ = Pyramid::build(&f, 3, &mut b).unwrap();
        assert_eq!(b.tally().intra, 2, "one smoothing call per built level");
    }

    #[test]
    fn pyramid_stops_at_min_side() {
        let f = textured(Dims::new(40, 20));
        let mut b = SoftwareBackend::new();
        let p = Pyramid::build(&f, 10, &mut b).unwrap();
        // 40×20 → 20×10 → next would be 10×5 < MIN_LEVEL_SIDE.
        assert_eq!(p.levels(), 2);
    }

    #[test]
    fn single_level_pyramid_issues_no_calls() {
        let f = textured(Dims::new(16, 16));
        let mut b = SoftwareBackend::new();
        let p = Pyramid::build(&f, 1, &mut b).unwrap();
        assert_eq!(p.levels(), 1);
        assert_eq!(b.tally().intra, 0);
    }

    #[test]
    fn errors() {
        let mut b = SoftwareBackend::new();
        assert!(Pyramid::build(&textured(Dims::new(16, 16)), 0, &mut b).is_err());
        assert!(Pyramid::build(&Frame::new(Dims::new(0, 0)), 2, &mut b).is_err());
    }

    #[test]
    fn decimate_picks_even_samples() {
        let f = textured(Dims::new(8, 6));
        let d = decimate(&f);
        assert_eq!(d.dims(), Dims::new(4, 3));
        assert_eq!(d.get(Point::new(1, 1)).y, f.get(Point::new(2, 2)).y);
    }

    #[test]
    fn level_scales() {
        assert_eq!(level_scale(0), 1.0);
        assert_eq!(level_scale(3), 8.0);
    }

    #[test]
    fn smoothing_reduces_aliasing() {
        // The decimated level of a smoothed frame has lower variance than
        // naive decimation of the raw frame.
        let f = textured(Dims::new(64, 64));
        let mut b = SoftwareBackend::new();
        let p = Pyramid::build(&f, 2, &mut b).unwrap();
        let naive = decimate(&f);
        let smooth_var = vip_core::ops::reduce::LumaStats::of(p.level(1))
            .unwrap()
            .variance;
        let naive_var = vip_core::ops::reduce::LumaStats::of(&naive)
            .unwrap()
            .variance;
        assert!(smooth_var < naive_var);
    }
}
