//! Segment-processing kernels: homogeneity criteria and label utilities
//! used by segment addressing.
//!
//! §2.2: *"luminance/chrominance difference between neighboring pixels for
//! homogeneity check"* — the canonical neighbourhood criterion driving the
//! expansion process of segment addressing (§2.1).
//!
//! # Examples
//!
//! ```
//! use vip_core::ops::segment_ops::{HomogeneityCriterion, NeighborCriterion};
//! use vip_core::pixel::Pixel;
//!
//! let crit = HomogeneityCriterion::luma(8);
//! assert!(crit.admits(Pixel::from_luma(100), Pixel::from_luma(104)));
//! assert!(!crit.admits(Pixel::from_luma(100), Pixel::from_luma(120)));
//! ```

use core::fmt;

use crate::pixel::Pixel;

/// A neighbourhood criterion: decides whether a candidate neighbour pixel
/// belongs to the segment being expanded, given the pixel it is reached
/// from.
///
/// Implemented as a trait so algorithms can plug arbitrary region-growing
/// predicates into the segment-addressing executor.
pub trait NeighborCriterion {
    /// Short stable name for traces and reports.
    fn name(&self) -> &'static str;

    /// Whether `candidate`, reached from segment member `from`, should be
    /// admitted to the segment.
    fn admits(&self, from: Pixel, candidate: Pixel) -> bool;
}

impl<T: NeighborCriterion + ?Sized> NeighborCriterion for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn admits(&self, from: Pixel, candidate: Pixel) -> bool {
        (**self).admits(from, candidate)
    }
}

/// Luminance homogeneity: the candidate joins when its luminance differs
/// from the source pixel by at most the tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomogeneityCriterion {
    luma_tolerance: u8,
}

impl HomogeneityCriterion {
    /// Luminance-only homogeneity with the given tolerance.
    #[must_use]
    pub const fn luma(tolerance: u8) -> Self {
        HomogeneityCriterion {
            luma_tolerance: tolerance,
        }
    }

    /// The luminance tolerance.
    #[must_use]
    pub const fn luma_tolerance(&self) -> u8 {
        self.luma_tolerance
    }
}

impl NeighborCriterion for HomogeneityCriterion {
    fn name(&self) -> &'static str {
        "homogeneity"
    }
    fn admits(&self, from: Pixel, candidate: Pixel) -> bool {
        from.y.abs_diff(candidate.y) <= self.luma_tolerance
    }
}

impl fmt::Display for HomogeneityCriterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "homogeneity(y≤{})", self.luma_tolerance)
    }
}

/// Threshold criterion: the candidate joins when its luminance is within a
/// fixed absolute band, independent of the source pixel (flood fill of an
/// intensity range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandCriterion {
    low: u8,
    high: u8,
}

impl BandCriterion {
    /// Creates a band criterion admitting luminance in `low..=high`.
    #[must_use]
    pub fn new(low: u8, high: u8) -> Self {
        BandCriterion {
            low: low.min(high),
            high: high.max(low),
        }
    }
}

impl NeighborCriterion for BandCriterion {
    fn name(&self) -> &'static str {
        "band"
    }
    fn admits(&self, _from: Pixel, candidate: Pixel) -> bool {
        (self.low..=self.high).contains(&candidate.y)
    }
}

/// Alpha-mask criterion: the candidate joins when its alpha channel is
/// non-zero — used to walk a precomputed mask (e.g. after change
/// detection) as a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlphaMaskCriterion;

impl AlphaMaskCriterion {
    /// Creates the alpha-mask criterion.
    #[must_use]
    pub const fn new() -> Self {
        AlphaMaskCriterion
    }
}

impl NeighborCriterion for AlphaMaskCriterion {
    fn name(&self) -> &'static str {
        "alpha_mask"
    }
    fn admits(&self, _from: Pixel, candidate: Pixel) -> bool {
        candidate.alpha != 0
    }
}

/// Writes a segment label into the alpha channel and the geodesic distance
/// into the aux channel — the per-pixel action most segmentation passes
/// perform while expanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelWriter {
    label: u16,
}

impl LabelWriter {
    /// Creates a label writer for segment id `label`.
    #[must_use]
    pub const fn new(label: u16) -> Self {
        LabelWriter { label }
    }

    /// The label this writer assigns.
    #[must_use]
    pub const fn label(&self) -> u16 {
        self.label
    }

    /// Applies the label and distance to a pixel.
    #[must_use]
    pub fn apply(&self, mut px: Pixel, geodesic_distance: u32) -> Pixel {
        px.alpha = self.label;
        px.aux = geodesic_distance.min(u32::from(u16::MAX)) as u16;
        px
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luma_homogeneity() {
        let c = HomogeneityCriterion::luma(5);
        assert_eq!(c.luma_tolerance(), 5);
        assert!(c.admits(Pixel::from_luma(10), Pixel::from_luma(15)));
        assert!(!c.admits(Pixel::from_luma(10), Pixel::from_luma(16)));
        assert!(c.admits(Pixel::from_luma(10), Pixel::from_luma(5)));
    }

    #[test]
    fn homogeneity_is_symmetric() {
        let c = HomogeneityCriterion::luma(7);
        let a = Pixel::from_luma(100);
        let b = Pixel::from_luma(106);
        assert_eq!(c.admits(a, b), c.admits(b, a));
    }

    #[test]
    fn band_criterion_ignores_source() {
        let c = BandCriterion::new(100, 200);
        assert!(c.admits(Pixel::from_luma(0), Pixel::from_luma(150)));
        assert!(!c.admits(Pixel::from_luma(150), Pixel::from_luma(99)));
        assert!(c.admits(Pixel::BLACK, Pixel::from_luma(100)));
        assert!(c.admits(Pixel::BLACK, Pixel::from_luma(200)));
    }

    #[test]
    fn band_criterion_normalises_bounds() {
        let c = BandCriterion::new(200, 100);
        assert!(c.admits(Pixel::BLACK, Pixel::from_luma(150)));
    }

    #[test]
    fn alpha_mask_criterion() {
        let c = AlphaMaskCriterion::new();
        assert!(c.admits(Pixel::BLACK, Pixel::BLACK.with_alpha(3)));
        assert!(!c.admits(Pixel::BLACK.with_alpha(3), Pixel::BLACK));
        assert_eq!(c.name(), "alpha_mask");
    }

    #[test]
    fn label_writer_sets_alpha_and_distance() {
        let w = LabelWriter::new(9);
        assert_eq!(w.label(), 9);
        let px = w.apply(Pixel::from_luma(50), 12);
        assert_eq!((px.alpha, px.aux, px.y), (9, 12, 50));
        let far = w.apply(Pixel::BLACK, 1_000_000);
        assert_eq!(far.aux, u16::MAX);
    }

    #[test]
    fn criterion_trait_object() {
        let c: &dyn NeighborCriterion = &HomogeneityCriterion::luma(1);
        assert_eq!(c.name(), "homogeneity");
        assert!(c.admits(Pixel::BLACK, Pixel::BLACK));
    }

    #[test]
    fn display() {
        assert_eq!(
            HomogeneityCriterion::luma(8).to_string(),
            "homogeneity(y≤8)"
        );
    }
}
