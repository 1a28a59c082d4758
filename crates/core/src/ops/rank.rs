//! Rank-order filters: median and general percentile filters over the
//! neighbourhood window — the classic non-linear smoothing family that
//! complements the morphological operators (min/max are the rank
//! extremes).
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::{Dims, Point};
//! use vip_core::neighborhood::Window;
//! use vip_core::ops::rank::Median;
//! use vip_core::ops::IntraOp;
//! use vip_core::pixel::Pixel;
//!
//! // A salt speck on a flat frame disappears under the median.
//! let mut f = Frame::filled(Dims::new(5, 5), Pixel::from_luma(50));
//! f.set(Point::new(2, 2), Pixel::from_luma(255));
//! let m = Median::con8();
//! let w = Window::gather(&f, Point::new(2, 2), m.shape());
//! assert_eq!(m.apply(&w).y, 50);
//! ```

use crate::error::{CoreError, CoreResult};
use crate::neighborhood::{Connectivity, Window, MAX_LINES};
use crate::ops::IntraOp;
use crate::pixel::{ChannelSet, Pixel};

/// Luminance rank filter: outputs the `rank`-th smallest sample of the
/// window (0 = minimum ≙ erosion, `len−1` = maximum ≙ dilation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFilter {
    shape: Connectivity,
    /// Rank as a fraction of the window size in per-mille (0 ⇒ min,
    /// 500 ⇒ median, 1000 ⇒ max) — window size varies at skip borders.
    rank_permille: u16,
}

impl RankFilter {
    /// Creates a rank filter selecting the given per-mille rank.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `rank_permille`
    /// exceeds 1000.
    pub fn new(shape: Connectivity, rank_permille: u16) -> CoreResult<Self> {
        if rank_permille > 1000 {
            return Err(CoreError::InvalidParameter {
                name: "rank_permille",
                reason: "rank must lie in 0..=1000",
            });
        }
        Ok(RankFilter {
            shape,
            rank_permille,
        })
    }

    /// The configured rank in per-mille.
    #[must_use]
    pub const fn rank_permille(&self) -> u16 {
        self.rank_permille
    }

    fn select(&self, window: &Window) -> u8 {
        // Windows span at most 9×9 samples, so the sort buffer lives on
        // the stack — this runs once per pixel.
        let mut lumas = [0u8; MAX_LINES * MAX_LINES];
        let mut n = 0;
        for p in window.pixels() {
            lumas[n] = p.y;
            n += 1;
        }
        if n == 0 {
            return window.centre_pixel().y;
        }
        let lumas = &mut lumas[..n];
        lumas.sort_unstable();
        let idx = (usize::from(self.rank_permille) * (n - 1) + 500) / 1000;
        lumas[idx]
    }
}

impl IntraOp for RankFilter {
    fn name(&self) -> &'static str {
        "rank"
    }
    fn shape(&self) -> Connectivity {
        self.shape
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        let mut out = window.centre_pixel();
        out.y = self.select(window);
        out
    }
}

/// The median filter: the 50 %-rank special case, the standard
/// salt-and-pepper noise remover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Median {
    inner: RankFilter,
}

impl Median {
    /// 3×3 median.
    #[must_use]
    pub fn con8() -> Self {
        Median {
            inner: RankFilter::new(Connectivity::Con8, 500).expect("500 is valid"),
        }
    }

    /// Median over an arbitrary window shape.
    #[must_use]
    pub fn with_shape(shape: Connectivity) -> Self {
        Median {
            inner: RankFilter::new(shape, 500).expect("500 is valid"),
        }
    }
}

impl IntraOp for Median {
    fn name(&self) -> &'static str {
        "median"
    }
    fn shape(&self) -> Connectivity {
        self.inner.shape()
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        self.inner.apply(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::intra::run_intra;
    use crate::frame::Frame;
    use crate::geometry::{Dims, Point};
    use crate::ops::morph::{Dilate, Erode};

    fn speckled() -> Frame {
        let mut f = Frame::filled(Dims::new(7, 7), Pixel::from_luma(80));
        f.set(Point::new(2, 2), Pixel::from_luma(255)); // salt
        f.set(Point::new(4, 4), Pixel::from_luma(0)); // pepper
        f
    }

    fn win(f: &Frame, p: Point, op: &impl IntraOp) -> Window {
        Window::gather(f, p, op.shape())
    }

    #[test]
    fn median_removes_salt_and_pepper() {
        let f = speckled();
        let m = Median::con8();
        assert_eq!(m.apply(&win(&f, Point::new(2, 2), &m)).y, 80);
        assert_eq!(m.apply(&win(&f, Point::new(4, 4), &m)).y, 80);
        // Flat area stays flat.
        assert_eq!(m.apply(&win(&f, Point::new(6, 6), &m)).y, 80);
    }

    #[test]
    fn rank_extremes_match_morphology() {
        let f = speckled();
        let min = RankFilter::new(Connectivity::Con8, 0).unwrap();
        let max = RankFilter::new(Connectivity::Con8, 1000).unwrap();
        let erode = Erode::con8();
        let dilate = Dilate::con8();
        for p in [Point::new(2, 2), Point::new(3, 3), Point::new(4, 4)] {
            assert_eq!(
                min.apply(&win(&f, p, &min)).y,
                erode.apply(&win(&f, p, &erode)).y,
                "min == erode at {p}"
            );
            assert_eq!(
                max.apply(&win(&f, p, &max)).y,
                dilate.apply(&win(&f, p, &dilate)).y,
                "max == dilate at {p}"
            );
        }
    }

    #[test]
    fn invalid_rank_rejected() {
        assert!(RankFilter::new(Connectivity::Con8, 1001).is_err());
        assert!(RankFilter::new(Connectivity::Con8, 1000).is_ok());
        assert_eq!(
            RankFilter::new(Connectivity::Con4, 250)
                .unwrap()
                .rank_permille(),
            250
        );
    }

    #[test]
    fn median_is_idempotent_on_flat() {
        let f = Frame::filled(Dims::new(5, 5), Pixel::from_luma(42));
        let r1 = run_intra(&f, &Median::con8()).unwrap().output;
        assert_eq!(r1, f);
    }

    #[test]
    fn median_bounded_by_min_max() {
        let f = speckled();
        let med = run_intra(&f, &Median::con8()).unwrap().output;
        let lo = run_intra(&f, &Erode::con8()).unwrap().output;
        let hi = run_intra(&f, &Dilate::con8()).unwrap().output;
        for (p, m) in med.enumerate() {
            assert!(lo.get(p).y <= m.y && m.y <= hi.get(p).y, "at {p}");
        }
    }

    #[test]
    fn whole_frame_pass_despeckles() {
        let f = speckled();
        let out = run_intra(&f, &Median::con8()).unwrap().output;
        assert!(out.pixels().iter().all(|p| p.y == 80), "all speckles gone");
    }

    #[test]
    fn preserves_other_channels() {
        let f = Frame::filled(Dims::new(3, 3), Pixel::new(10, 20, 30, 40, 50));
        let m = Median::with_shape(Connectivity::Con4);
        let out = m.apply(&win(&f, Point::new(1, 1), &m));
        assert_eq!((out.u, out.v, out.alpha, out.aux), (20, 30, 40, 50));
        assert_eq!(m.shape(), Connectivity::Con4);
        assert_eq!(m.name(), "median");
    }
}
