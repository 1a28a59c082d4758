//! Segment addressing: seeded expansion over arbitrarily shaped segments.
//!
//! §2.1: *"Beginning with a set of start pixels, all pixels of the segment
//! are processed in order of geodesic distance."* Each processed pixel is
//! written once (its label and distance) and then its not-yet-visited
//! neighbours are tested against a [`NeighborCriterion`] and, if
//! admitted, scheduled for a later expansion step. [`run_segment`] reads
//! only the pixel itself; [`run_segment_op`] handles the pixel like an
//! intra pixel and is the only path that gathers a neighbourhood window
//! for its kernel. Both charge the software AddressLib's full window read
//! per pixel, the Table 2 model, whatever the host loop reads.
//!
//! The expansion is a breadth-first traversal, so pixels are visited in
//! non-decreasing geodesic distance from the seed set — exactly the
//! ordering the paper describes.
//!
//! # Examples
//!
//! ```
//! use vip_core::addressing::segment::{run_segment, SegmentOptions};
//! use vip_core::frame::Frame;
//! use vip_core::geometry::{Dims, Point};
//! use vip_core::ops::segment_ops::HomogeneityCriterion;
//! use vip_core::pixel::Pixel;
//!
//! // A bright plus-shaped region on dark background.
//! let mut f = Frame::filled(Dims::new(5, 5), Pixel::from_luma(0));
//! for p in [(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)] {
//!     f.set(Point::new(p.0, p.1), Pixel::from_luma(200));
//! }
//! let r = run_segment(
//!     &f,
//!     &[Point::new(2, 2)],
//!     &HomogeneityCriterion::luma(10),
//!     SegmentOptions::default(),
//! )?;
//! assert_eq!(r.segment.len(), 5);
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use std::collections::VecDeque;

use crate::accounting::{AccessCounter, CallDescriptor};
use crate::addressing::CallReport;
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::geometry::Point;
use crate::neighborhood::{Connectivity, Window};
use crate::ops::segment_ops::{LabelWriter, NeighborCriterion};
use crate::ops::IntraOp;
use crate::pixel::{ChannelSet, Pixel};

/// Options of a segment-addressing call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentOptions {
    /// Connectivity used for the expansion test (default `CON_4`: the
    /// geodesic city-block expansion).
    pub connectivity: Connectivity,
    /// Upper bound on the number of processed pixels (safety valve for
    /// run-away criteria); `None` means the whole frame.
    pub max_pixels: Option<usize>,
    /// Label written by [`run_segment`] to the alpha channel of segment
    /// members (geodesic distance goes to `aux`).
    pub label: u16,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            connectivity: Connectivity::Con4,
            max_pixels: None,
            label: 1,
        }
    }
}

/// One visited segment pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPixel {
    /// Position in the frame.
    pub point: Point,
    /// Geodesic distance from the seed set (seeds have distance 0).
    pub distance: u32,
}

/// Result of a segment-addressing call.
#[derive(Debug, Clone)]
pub struct SegmentResult {
    /// Frame with segment labels in alpha and geodesic distances in aux
    /// (plus any kernel output when produced by [`run_segment_op`]).
    pub output: Frame,
    /// The visited pixels in processing order (non-decreasing distance).
    pub segment: Vec<SegmentPixel>,
    /// Execution statistics.
    pub report: CallReport,
}

impl SegmentResult {
    /// The geodesic radius of the segment: the largest distance reached.
    #[must_use]
    pub fn max_distance(&self) -> u32 {
        self.segment.last().map_or(0, |s| s.distance)
    }
}

/// Expands a segment from `seeds` under `criterion`, labelling members in
/// the alpha channel and recording geodesic distance in aux.
///
/// # Errors
///
/// * [`CoreError::EmptyFrame`] for zero-area frames.
/// * [`CoreError::NoSeeds`] when `seeds` is empty.
/// * [`CoreError::OutOfBounds`] when a seed lies outside the frame.
/// * [`CoreError::InvalidParameter`] when the connectivity spans more
///   than [`MAX_LINES`](crate::neighborhood::MAX_LINES) lines.
pub fn run_segment(
    frame: &Frame,
    seeds: &[Point],
    criterion: &impl NeighborCriterion,
    options: SegmentOptions,
) -> CoreResult<SegmentResult> {
    let writer = LabelWriter::new(options.label);
    run_segment_visit(frame, seeds, criterion, options, |_, px, dist| {
        writer.apply(px, dist)
    })
}

/// Expands a segment and additionally applies an intra kernel to every
/// member (the *"pixel processing is done in the same way as for intra
/// addressing"* part of §2.1). The kernel's output channels are merged
/// over the label writer's output.
///
/// # Errors
///
/// Same conditions as [`run_segment`], and
/// [`CoreError::InvalidParameter`] when the kernel's shape spans more than
/// [`MAX_LINES`](crate::neighborhood::MAX_LINES) lines.
pub fn run_segment_op(
    frame: &Frame,
    seeds: &[Point],
    criterion: &impl NeighborCriterion,
    op: &impl IntraOp,
    options: SegmentOptions,
) -> CoreResult<SegmentResult> {
    // The kernel needs its own window shape, which may differ from the
    // expansion connectivity (e.g. a CON_8 Sobel inside a CON_4 expansion).
    let shape = op.shape();
    shape.check_span()?;
    let writer = LabelWriter::new(options.label);
    let out_channels = op.output_channels();
    run_segment_visit(frame, seeds, criterion, options, |point, px, dist| {
        let mut out = writer.apply(px, dist);
        out.merge_channels(op.apply(&Window::gather(frame, point, shape)), out_channels);
        out
    })
}

fn run_segment_visit(
    frame: &Frame,
    seeds: &[Point],
    criterion: &impl NeighborCriterion,
    options: SegmentOptions,
    mut visit: impl FnMut(Point, Pixel, u32) -> Pixel,
) -> CoreResult<SegmentResult> {
    if frame.dims().is_empty() {
        return Err(CoreError::EmptyFrame);
    }
    if seeds.is_empty() {
        return Err(CoreError::NoSeeds);
    }
    options.connectivity.check_span()?;
    for &seed in seeds {
        if !frame.dims().contains(seed) {
            return Err(CoreError::OutOfBounds {
                point: seed,
                dims: frame.dims(),
            });
        }
    }

    let descriptor = CallDescriptor::segment(
        options.connectivity,
        ChannelSet::Y,
        ChannelSet::ALPHA.union(ChannelSet::AUX),
    );
    let per_pixel_reads = descriptor.software_accesses_per_pixel() - 1;
    let mut counter = AccessCounter::new();

    let dims = frame.dims();
    let mut output = frame.clone();
    let mut scheduled = vec![false; dims.pixel_count()];
    let mut queue: VecDeque<SegmentPixel> = VecDeque::new();
    for &seed in seeds {
        let idx = dims.index_of(seed);
        if !scheduled[idx] {
            scheduled[idx] = true;
            queue.push_back(SegmentPixel {
                point: seed,
                distance: 0,
            });
        }
    }

    let budget = options.max_pixels.unwrap_or(dims.pixel_count());
    let offsets = options.connectivity.expansion_offsets();
    let mut segment = Vec::new();

    while let Some(current) = queue.pop_front() {
        if segment.len() >= budget {
            break;
        }
        // Process like an intra pixel: the visit reads the window it
        // needs; the count is the software AddressLib's full window.
        let from = frame.get(current.point);
        counter.read(per_pixel_reads);
        output.set(current.point, visit(current.point, from, current.distance));
        counter.write(1);
        segment.push(current);

        // Expansion: test unprocessed neighbours against the criterion.
        for off in &offsets {
            let np = current.point + *off;
            if !dims.contains(np) {
                continue;
            }
            let idx = dims.index_of(np);
            if scheduled[idx] {
                continue;
            }
            counter.read(1); // candidate test reads its pixel
            if criterion.admits(from, frame.get(np)) {
                scheduled[idx] = true;
                queue.push_back(SegmentPixel {
                    point: np,
                    distance: current.distance + 1,
                });
            }
        }
    }

    let processed = segment.len() as u64;
    Ok(SegmentResult {
        output,
        segment,
        report: CallReport {
            descriptor,
            dims,
            pixels_processed: processed,
            op_applies: processed,
            counter,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;
    use crate::ops::filter::SobelGradient;
    use crate::ops::segment_ops::{AlphaMaskCriterion, BandCriterion, HomogeneityCriterion};

    /// 7x7 frame: bright 3x3 block at (2..5, 2..5) on dark background.
    fn block_frame() -> Frame {
        Frame::from_fn(Dims::new(7, 7), |p| {
            if (2..5).contains(&p.x) && (2..5).contains(&p.y) {
                Pixel::from_luma(200)
            } else {
                Pixel::from_luma(10)
            }
        })
    }

    #[test]
    fn expands_exactly_the_block() {
        let f = block_frame();
        let r = run_segment(
            &f,
            &[Point::new(3, 3)],
            &HomogeneityCriterion::luma(20),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(r.segment.len(), 9);
        // All members labelled, all non-members untouched.
        for (p, px) in r.output.enumerate() {
            let inside = (2..5).contains(&p.x) && (2..5).contains(&p.y);
            assert_eq!(px.alpha != 0, inside, "at {p}");
        }
    }

    #[test]
    fn geodesic_order_non_decreasing() {
        let f = block_frame();
        let r = run_segment(
            &f,
            &[Point::new(2, 2)],
            &HomogeneityCriterion::luma(20),
            SegmentOptions::default(),
        )
        .unwrap();
        let dists: Vec<u32> = r.segment.iter().map(|s| s.distance).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
        // Corner seed: farthest block pixel (4,4) is 4 city-block steps away.
        assert_eq!(r.max_distance(), 4);
    }

    #[test]
    fn distance_written_to_aux() {
        let f = block_frame();
        let r = run_segment(
            &f,
            &[Point::new(2, 2)],
            &HomogeneityCriterion::luma(20),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(r.output.get(Point::new(2, 2)).aux, 0);
        assert_eq!(r.output.get(Point::new(4, 4)).aux, 4);
        assert_eq!(r.output.get(Point::new(3, 2)).aux, 1);
    }

    #[test]
    fn con8_reaches_diagonals_in_one_step() {
        let f = block_frame();
        let opts = SegmentOptions {
            connectivity: Connectivity::Con8,
            ..SegmentOptions::default()
        };
        let r = run_segment(
            &f,
            &[Point::new(3, 3)],
            &HomogeneityCriterion::luma(20),
            opts,
        )
        .unwrap();
        assert_eq!(r.segment.len(), 9);
        assert_eq!(r.max_distance(), 1); // all 8 neighbours at distance 1
    }

    #[test]
    fn multiple_seeds_share_distance_zero() {
        let f = block_frame();
        let r = run_segment(
            &f,
            &[Point::new(2, 2), Point::new(4, 4)],
            &HomogeneityCriterion::luma(20),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(r.output.get(Point::new(2, 2)).aux, 0);
        assert_eq!(r.output.get(Point::new(4, 4)).aux, 0);
        // (3,3) is diagonal to both seeds: two CON_4 steps from either.
        assert_eq!(r.output.get(Point::new(3, 3)).aux, 2);
        assert_eq!(r.segment.len(), 9);
    }

    #[test]
    fn duplicate_seeds_processed_once() {
        let f = block_frame();
        let seeds = [Point::new(3, 3), Point::new(3, 3)];
        let r = run_segment(
            &f,
            &seeds,
            &HomogeneityCriterion::luma(20),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(
            r.segment
                .iter()
                .filter(|s| s.point == Point::new(3, 3))
                .count(),
            1
        );
    }

    #[test]
    fn errors() {
        let f = block_frame();
        assert!(matches!(
            run_segment(
                &f,
                &[],
                &HomogeneityCriterion::luma(1),
                SegmentOptions::default()
            ),
            Err(CoreError::NoSeeds)
        ));
        assert!(matches!(
            run_segment(
                &f,
                &[Point::new(99, 0)],
                &HomogeneityCriterion::luma(1),
                SegmentOptions::default()
            ),
            Err(CoreError::OutOfBounds { .. })
        ));
        let empty = Frame::new(Dims::new(0, 0));
        assert!(matches!(
            run_segment(
                &empty,
                &[Point::ORIGIN],
                &HomogeneityCriterion::luma(1),
                SegmentOptions::default()
            ),
            Err(CoreError::EmptyFrame)
        ));
    }

    #[test]
    fn shapes_wider_than_nine_lines_rejected() {
        let f = block_frame();
        let seeds = [Point::new(3, 3)];
        let criterion = HomogeneityCriterion::luma(20);
        let wide = Connectivity::Square(5);
        let is_shape_error = |r: CoreResult<SegmentResult>| {
            matches!(r, Err(CoreError::InvalidParameter { name: "shape", .. }))
        };
        let wide_options = SegmentOptions {
            connectivity: wide,
            ..SegmentOptions::default()
        };
        assert!(is_shape_error(run_segment(
            &f,
            &seeds,
            &criterion,
            wide_options
        )));
        assert!(is_shape_error(run_segment_op(
            &f,
            &seeds,
            &criterion,
            &SobelGradient::new(),
            wide_options
        )));
        assert!(is_shape_error(run_segment_op(
            &f,
            &seeds,
            &criterion,
            &crate::ops::morph::Dilate::with_shape(wide),
            SegmentOptions::default()
        )));
    }

    #[test]
    fn max_pixels_budget_stops_expansion() {
        let f = Frame::filled(Dims::new(10, 10), Pixel::from_luma(50));
        let opts = SegmentOptions {
            max_pixels: Some(5),
            ..SegmentOptions::default()
        };
        let r = run_segment(
            &f,
            &[Point::new(5, 5)],
            &HomogeneityCriterion::luma(5),
            opts,
        )
        .unwrap();
        assert_eq!(r.segment.len(), 5);
    }

    #[test]
    fn band_criterion_flood_fill() {
        let f = block_frame();
        let r = run_segment(
            &f,
            &[Point::new(0, 0)],
            &BandCriterion::new(0, 50),
            SegmentOptions::default(),
        )
        .unwrap();
        // Fills the dark background: 49 − 9 = 40 pixels.
        assert_eq!(r.segment.len(), 40);
    }

    #[test]
    fn alpha_mask_walk() {
        let mut f = Frame::new(Dims::new(5, 1));
        for x in 0..3 {
            f.get_mut(Point::new(x, 0)).alpha = 1;
        }
        let r = run_segment(
            &f,
            &[Point::new(0, 0)],
            &AlphaMaskCriterion::new(),
            SegmentOptions {
                label: 7,
                ..SegmentOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.segment.len(), 3);
        assert_eq!(r.output.get(Point::new(1, 0)).alpha, 7);
        assert_eq!(r.output.get(Point::new(3, 0)).alpha, 0);
    }

    #[test]
    fn segment_op_applies_kernel_to_members() {
        let f = block_frame();
        let r = run_segment_op(
            &f,
            &[Point::new(3, 3)],
            &HomogeneityCriterion::luma(20),
            &SobelGradient::new(),
            SegmentOptions {
                connectivity: Connectivity::Con8,
                ..SegmentOptions::default()
            },
        )
        .unwrap();
        // Centre of the block: flat 200 neighbourhood → zero gradient.
        assert_eq!(r.output.get(Point::new(3, 3)).y, 0);
        // Block corner touches background → strong gradient.
        assert!(r.output.get(Point::new(2, 2)).y > 0);
        // Labels still written.
        assert_eq!(r.output.get(Point::new(3, 3)).alpha, 1);
        // Outside pixels untouched.
        assert_eq!(r.output.get(Point::new(0, 0)).y, 10);
    }

    #[test]
    fn segment_op_uses_kernel_shape_not_expansion_shape() {
        // Regression: a CON_8 kernel inside the default CON_4 expansion
        // must still see its full 3×3 window.
        let f = block_frame();
        let r = run_segment_op(
            &f,
            &[Point::new(3, 3)],
            &HomogeneityCriterion::luma(20),
            &SobelGradient::new(),
            SegmentOptions::default(), // CON_4 expansion
        )
        .unwrap();
        // Compare against a plain intra Sobel at the same points.
        let sw = crate::addressing::intra::run_intra(&f, &SobelGradient::new())
            .unwrap()
            .output;
        for member in &r.segment {
            assert_eq!(
                r.output.get(member.point).y,
                sw.get(member.point).y,
                "kernel output must match the intra pass at {}",
                member.point
            );
        }
    }

    #[test]
    fn report_counts_accesses() {
        let f = block_frame();
        let r = run_segment(
            &f,
            &[Point::new(3, 3)],
            &HomogeneityCriterion::luma(20),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(r.report.pixels_processed, 9);
        assert!(r.report.counter.reads() > 0);
        assert_eq!(r.report.counter.writes(), 9);
        assert_eq!(
            r.report.descriptor.mode,
            crate::accounting::AddressingMode::Segment
        );
    }

    #[test]
    fn seed_not_matching_criterion_still_processed() {
        // Seeds are processed unconditionally; the criterion gates only
        // the expansion (per §2.1 the start pixels are given).
        let f = block_frame();
        let r = run_segment(
            &f,
            &[Point::new(0, 0)],
            &HomogeneityCriterion::luma(0),
            SegmentOptions::default(),
        )
        .unwrap();
        assert!(!r.segment.is_empty());
        assert_eq!(r.segment[0].point, Point::new(0, 0));
    }
}
