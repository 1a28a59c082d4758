//! Whole-frame segmentation by repeated segment addressing: every pixel
//! becomes a seed of some segment, yielding a complete connected-
//! component labelling — the core loop of the video-object-segmentation
//! algorithms the AddressLib was designed for (\[2\]).
//!
//! # Examples
//!
//! ```
//! use vip_core::addressing::labeling::label_all_segments;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::segment_ops::HomogeneityCriterion;
//! use vip_core::pixel::Pixel;
//!
//! // Left half dark, right half bright → two segments.
//! let f = Frame::from_fn(Dims::new(8, 4), |p| {
//!     Pixel::from_luma(if p.x < 4 { 20 } else { 200 })
//! });
//! let labelling = label_all_segments(&f, &HomogeneityCriterion::luma(10), Default::default())?;
//! assert_eq!(labelling.segment_count(), 2);
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use crate::accounting::AccessCounter;
use crate::addressing::segment::{run_segment, SegmentOptions, SegmentPixel};
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::geometry::Point;
use crate::ops::segment_ops::NeighborCriterion;

/// A complete frame labelling.
#[derive(Debug, Clone)]
pub struct Labelling {
    /// Frame with segment labels in alpha (1-based) and geodesic
    /// distances in aux.
    pub output: Frame,
    /// Per-segment member lists in label order (`segments[0]` = label 1).
    pub segments: Vec<Vec<SegmentPixel>>,
    /// Accumulated access counters over all expansions.
    pub counter: AccessCounter,
}

impl Labelling {
    /// Number of segments found.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The label of the pixel at `p` (0 = never labelled, which cannot
    /// happen after [`label_all_segments`]).
    #[must_use]
    pub fn label_at(&self, p: Point) -> u16 {
        self.output.get(p).alpha
    }

    /// Size of the largest segment.
    #[must_use]
    pub fn largest_segment(&self) -> usize {
        self.segments.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean segment size.
    #[must_use]
    pub fn mean_segment_size(&self) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        let total: usize = self.segments.iter().map(Vec::len).sum();
        total as f64 / self.segments.len() as f64
    }
}

/// Labels every pixel of the frame by expanding segments from unlabelled
/// seeds in scan order. Segment `k` (1-based) grows from the first
/// unlabelled pixel under `criterion`; pixels rejected by every
/// expansion become single-pixel segments of their own.
///
/// The `options.label` field is ignored (labels are assigned
/// sequentially); `connectivity` is honoured.
///
/// # Errors
///
/// Returns [`CoreError::EmptyFrame`] for zero-area frames and
/// [`CoreError::InvalidParameter`] when the frame needs more than
/// `u16::MAX` labels or the connectivity spans more than nine lines.
pub fn label_all_segments(
    frame: &Frame,
    criterion: &impl NeighborCriterion,
    options: SegmentOptions,
) -> CoreResult<Labelling> {
    if frame.dims().is_empty() {
        return Err(CoreError::EmptyFrame);
    }
    let dims = frame.dims();
    // Working frame: alpha carries committed labels (cleared first), so
    // expansions can be gated against already-labelled pixels through
    // the candidate's value — path-dependent criteria must never leak a
    // later segment into an earlier one.
    let mut work = frame.clone();
    for px in work.pixels_mut() {
        px.alpha = 0;
    }
    let mut segments: Vec<Vec<SegmentPixel>> = Vec::new();
    let mut counter = AccessCounter::new();

    for seed in dims.bounds().points() {
        if work.get(seed).alpha != 0 {
            continue;
        }
        let label = u16::try_from(segments.len() + 1).map_err(|_| CoreError::InvalidParameter {
            name: "frame",
            reason: "more segments than u16 labels",
        })?;

        let gated = UnlabelledCriterion { inner: criterion };
        let result = run_segment(&work, &[seed], &gated, SegmentOptions { label, ..options })?;

        // Commit the members into the working frame.
        for member in &result.segment {
            let mut px = work.get(member.point);
            debug_assert_eq!(px.alpha, 0, "segments must not overlap");
            px.alpha = label;
            px.aux = member.distance.min(u32::from(u16::MAX)) as u16;
            work.set(member.point, px);
        }
        counter.read(result.report.counter.reads());
        counter.write(result.report.counter.writes());
        segments.push(result.segment);
    }

    Ok(Labelling {
        output: work,
        segments,
        counter,
    })
}

/// Wraps a criterion so expansions never enter already-labelled pixels
/// (non-zero alpha in the working frame).
struct UnlabelledCriterion<'a, C: NeighborCriterion> {
    inner: &'a C,
}

impl<C: NeighborCriterion> NeighborCriterion for UnlabelledCriterion<'_, C> {
    fn name(&self) -> &'static str {
        "unlabelled"
    }
    fn admits(&self, from: crate::pixel::Pixel, candidate: crate::pixel::Pixel) -> bool {
        candidate.alpha == 0 && self.inner.admits(from, candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;
    use crate::ops::segment_ops::HomogeneityCriterion;
    use crate::pixel::Pixel;

    fn two_band_frame() -> Frame {
        Frame::from_fn(Dims::new(8, 4), |p| {
            Pixel::from_luma(if p.x < 4 { 20 } else { 200 })
        })
    }

    #[test]
    fn two_bands_two_segments() {
        let l = label_all_segments(
            &two_band_frame(),
            &HomogeneityCriterion::luma(10),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(l.segment_count(), 2);
        assert_eq!(l.label_at(Point::new(0, 0)), 1);
        assert_eq!(l.label_at(Point::new(7, 3)), 2);
        assert_eq!(l.largest_segment(), 16);
        assert!((l.mean_segment_size() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn every_pixel_labelled_exactly_once() {
        let f = Frame::from_fn(Dims::new(12, 9), |p| {
            Pixel::from_luma(((p.x / 3) * 60 + (p.y / 3) * 17) as u8)
        });
        let l = label_all_segments(
            &f,
            &HomogeneityCriterion::luma(5),
            SegmentOptions::default(),
        )
        .unwrap();
        // Coverage: every pixel has a non-zero label.
        assert!(l.output.pixels().iter().all(|p| p.alpha > 0));
        // Disjointness: total member count equals the pixel count.
        let total: usize = l.segments.iter().map(Vec::len).sum();
        assert_eq!(total, 108);
    }

    #[test]
    fn flat_frame_is_one_segment() {
        let f = Frame::filled(Dims::new(10, 10), Pixel::from_luma(99));
        let l = label_all_segments(
            &f,
            &HomogeneityCriterion::luma(0),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(l.segment_count(), 1);
        assert_eq!(l.largest_segment(), 100);
    }

    #[test]
    fn checkerboard_maximally_fragments() {
        // Alternating pixels with zero tolerance: every pixel its own
        // segment under CON_4 (no equal 4-neighbours).
        let f = Frame::from_fn(Dims::new(6, 6), |p| {
            Pixel::from_luma(if (p.x + p.y) % 2 == 0 { 0 } else { 255 })
        });
        let l = label_all_segments(
            &f,
            &HomogeneityCriterion::luma(0),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(l.segment_count(), 36);
        assert_eq!(l.largest_segment(), 1);
    }

    #[test]
    fn labels_are_scan_ordered() {
        let l = label_all_segments(
            &two_band_frame(),
            &HomogeneityCriterion::luma(10),
            SegmentOptions::default(),
        )
        .unwrap();
        // First label belongs to the first scan pixel.
        assert_eq!(l.segments[0][0].point, Point::new(0, 0));
        assert_eq!(l.segments[1][0].point, Point::new(4, 0));
    }

    #[test]
    fn distances_recorded_per_segment() {
        let l = label_all_segments(
            &two_band_frame(),
            &HomogeneityCriterion::luma(10),
            SegmentOptions::default(),
        )
        .unwrap();
        // Seed has distance 0; the far corner of a 4×4 band is 6 steps.
        assert_eq!(l.output.get(Point::new(0, 0)).aux, 0);
        assert_eq!(l.output.get(Point::new(3, 3)).aux, 6);
    }

    #[test]
    fn empty_frame_rejected() {
        assert!(matches!(
            label_all_segments(
                &Frame::new(Dims::new(0, 3)),
                &HomogeneityCriterion::luma(1),
                SegmentOptions::default()
            ),
            Err(CoreError::EmptyFrame)
        ));
    }

    #[test]
    fn counters_accumulate_across_segments() {
        let l = label_all_segments(
            &two_band_frame(),
            &HomogeneityCriterion::luma(10),
            SegmentOptions::default(),
        )
        .unwrap();
        assert!(l.counter.reads() > 0);
        assert_eq!(l.counter.writes(), 32, "one write per pixel overall");
    }

    #[test]
    fn works_with_indexed_stats() {
        let l = label_all_segments(
            &two_band_frame(),
            &HomogeneityCriterion::luma(10),
            SegmentOptions::default(),
        )
        .unwrap();
        let table = crate::addressing::indexed::accumulate_segment_stats(&l.output).unwrap();
        assert_eq!(table.as_ref()[1].area, 16);
        assert_eq!(table.as_ref()[2].area, 16);
        assert!((table.as_ref()[2].mean_luma() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn connectivity_wider_than_nine_lines_rejected() {
        let options = SegmentOptions {
            connectivity: crate::neighborhood::Connectivity::Square(5),
            ..SegmentOptions::default()
        };
        assert!(matches!(
            label_all_segments(&two_band_frame(), &HomogeneityCriterion::luma(10), options),
            Err(CoreError::InvalidParameter { name: "shape", .. })
        ));
    }
}
