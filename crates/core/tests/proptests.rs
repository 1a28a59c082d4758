//! Property tests of the AddressLib core invariants.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded xorshift64
//! stream, one seed per case, so every run checks the same inputs and a
//! failure names the case that broke it.

use std::panic::{self, AssertUnwindSafe};

use vip_core::accounting::CallDescriptor;
use vip_core::addressing::inter::run_inter;
use vip_core::addressing::intra::run_intra;
use vip_core::addressing::segment::{run_segment, SegmentOptions};
use vip_core::frame::Frame;
use vip_core::geometry::{Dims, Point};
use vip_core::neighborhood::Connectivity;
use vip_core::ops::arith::{AbsDiff, Add, Blend, Sub};
use vip_core::ops::filter::{BoxBlur, Identity};
use vip_core::ops::morph::{Dilate, Erode};
use vip_core::ops::reduce::{sad, ssd, Histogram, LumaStats};
use vip_core::ops::segment_ops::HomogeneityCriterion;
use vip_core::ops::InterOp;
use vip_core::pixel::{Channel, ChannelSet, Pixel};
use vip_core::scan::strips;

/// Cases per property.
const CASES: u64 = 256;

/// xorshift64, seeded from the case index.
struct Rng(u64);

impl Rng {
    fn new(case: u64) -> Self {
        Rng((case + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// Checks `property` on [`CASES`] seeded inputs and names a failing case.
fn check(property: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(case))));
        if let Err(cause) = outcome {
            eprintln!("property failed on case {case}");
            panic::resume_unwind(cause);
        }
    }
}

fn arb_pixel(rng: &mut Rng) -> Pixel {
    Pixel::from_bits(rng.next())
}

fn arb_dims(rng: &mut Rng) -> Dims {
    Dims::new(rng.range(1, 24), rng.range(1, 24))
}

fn arb_frame_of(rng: &mut Rng, dims: Dims) -> Frame {
    Frame::from_fn(dims, |_| arb_pixel(rng))
}

fn arb_frame(rng: &mut Rng) -> Frame {
    let dims = arb_dims(rng);
    arb_frame_of(rng, dims)
}

fn arb_frame_pair(rng: &mut Rng) -> (Frame, Frame) {
    let dims = arb_dims(rng);
    (arb_frame_of(rng, dims), arb_frame_of(rng, dims))
}

#[test]
fn pixel_word_roundtrip() {
    check(|rng| {
        let p = arb_pixel(rng);
        let (lo, hi) = p.to_words();
        assert_eq!(Pixel::from_words(lo, hi), p);
        assert_eq!(Pixel::from_bits(p.to_bits()), p);
        // Padding byte always zero.
        assert_eq!(lo >> 24, 0);
    });
}

#[test]
fn strips_partition_frame() {
    check(|rng| {
        let dims = arb_dims(rng);
        let strip_len = rng.range(1, 20);
        let ss = strips(dims, strip_len);
        let total: usize = ss.iter().map(|s| s.pixel_count(dims)).sum();
        assert_eq!(total, dims.pixel_count());
        // Contiguous, non-overlapping.
        let mut expected_start = 0;
        for s in &ss {
            assert_eq!(s.start, expected_start);
            expected_start += s.len;
        }
    });
}

#[test]
fn absdiff_symmetry_and_triangle() {
    check(|rng| {
        let (a, b, c) = (arb_pixel(rng), arb_pixel(rng), arb_pixel(rng));
        let op = AbsDiff::yuv();
        let ab = op.apply(a, b);
        let ba = op.apply(b, a);
        assert_eq!((ab.y, ab.u, ab.v), (ba.y, ba.u, ba.v));
        // Triangle inequality on luminance.
        let ac = op.apply(a, c);
        let cb = op.apply(c, b);
        assert!(u16::from(ab.y) <= u16::from(ac.y) + u16::from(cb.y));
    });
}

#[test]
fn add_sub_are_monotone_saturating() {
    check(|rng| {
        let (a, b) = (arb_pixel(rng), arb_pixel(rng));
        let sum = Add::yuv().apply(a, b);
        assert!(sum.y >= a.y.min(255 - b.y));
        let diff = Sub::yuv().apply(a, b);
        assert!(diff.y <= a.y);
    });
}

#[test]
fn blend_bounded_by_operands() {
    check(|rng| {
        let (a, b) = (arb_pixel(rng), arb_pixel(rng));
        let w = rng.range(0, 257) as u16;
        let out = Blend::new(w).apply(a, b);
        let lo = a.y.min(b.y);
        let hi = a.y.max(b.y);
        assert!(
            out.y >= lo.saturating_sub(1) && out.y <= hi.saturating_add(1),
            "blend {} outside [{}, {}]",
            out.y,
            lo,
            hi
        );
    });
}

#[test]
fn inter_output_nonop_channels_from_a() {
    check(|rng| {
        let (a, b) = arb_frame_pair(rng);
        let r = run_inter(&a, &b, &AbsDiff::luma()).expect("valid frames");
        for (p, px) in r.output.enumerate() {
            let pa = a.get(p);
            assert_eq!(px.u, pa.u);
            assert_eq!(px.v, pa.v);
            assert_eq!(px.alpha, pa.alpha);
            assert_eq!(px.aux, pa.aux);
        }
    });
}

#[test]
fn intra_identity_is_noop() {
    check(|rng| {
        let f = arb_frame(rng);
        let r = run_intra(&f, &Identity::yuv()).expect("valid frame");
        // YUV identical; side channels preserved by merge semantics.
        assert_eq!(r.output, f);
    });
}

#[test]
fn erode_le_dilate_everywhere() {
    check(|rng| {
        let f = arb_frame(rng);
        let e = run_intra(&f, &Erode::con8()).expect("valid").output;
        let d = run_intra(&f, &Dilate::con8()).expect("valid").output;
        for (p, ep) in e.enumerate() {
            let dv = d.get(p).y;
            let orig = f.get(p).y;
            assert!(ep.y <= orig && orig <= dv, "at {}", p);
        }
    });
}

#[test]
fn erode_dilate_idempotent_on_extremes() {
    check(|rng| {
        let f = arb_frame(rng);
        // erode(erode(f)) <= erode(f), dilate grows monotonically.
        let e1 = run_intra(&f, &Erode::con8()).expect("valid").output;
        let e2 = run_intra(&e1, &Erode::con8()).expect("valid").output;
        for (p, px) in e2.enumerate() {
            assert!(px.y <= e1.get(p).y);
        }
    });
}

#[test]
fn box_blur_preserves_mean_bounds() {
    check(|rng| {
        let f = arb_frame(rng);
        let stats_in = LumaStats::of(&f).expect("non-empty");
        let blurred = run_intra(&f, &BoxBlur::con8()).expect("valid").output;
        let stats_out = LumaStats::of(&blurred).expect("non-empty");
        assert!(stats_out.min >= stats_in.min);
        assert!(stats_out.max <= stats_in.max);
        // Smoothing never increases variance beyond input (allow rounding).
        assert!(stats_out.variance <= stats_in.variance + 1.0);
    });
}

#[test]
fn sad_is_a_metric() {
    check(|rng| {
        let (a, b) = arb_frame_pair(rng);
        assert_eq!(sad(&a, &a).expect("same dims"), 0);
        assert_eq!(
            sad(&a, &b).expect("same dims"),
            sad(&b, &a).expect("same dims")
        );
        let s = sad(&a, &b).expect("same dims");
        let q = ssd(&a, &b).expect("same dims");
        // SSD >= SAD when every |d| >= 1 contributes d^2 >= d; and both 0 together.
        assert_eq!(s == 0, q == 0);
    });
}

#[test]
fn histogram_total_equals_pixels() {
    check(|rng| {
        let f = arb_frame(rng);
        let h = Histogram::of(&f, Channel::Y);
        assert_eq!(h.total(), f.pixel_count() as u64);
        let sum: u64 = h.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, h.total());
        // Quantiles are monotone.
        assert!(h.quantile(0.1) <= h.quantile(0.9));
    });
}

#[test]
fn segment_stays_within_frame_and_unique() {
    check(|rng| {
        let f = arb_frame(rng);
        let tol = rng.range(0, 40) as u8;
        let seed = Point::new((f.width() / 2) as i32, (f.height() / 2) as i32);
        let r = run_segment(
            &f,
            &[seed],
            &HomogeneityCriterion::luma(tol),
            SegmentOptions::default(),
        )
        .expect("valid");
        let mut seen = std::collections::HashSet::new();
        for s in &r.segment {
            assert!(f.dims().contains(s.point));
            assert!(seen.insert(s.point), "duplicate {}", s.point);
        }
        // Distances non-decreasing (geodesic order).
        assert!(r.segment.windows(2).all(|w| w[0].distance <= w[1].distance));
        // Larger tolerance never yields a smaller segment.
        if tol < 39 {
            let r2 = run_segment(
                &f,
                &[seed],
                &HomogeneityCriterion::luma(tol + 1),
                SegmentOptions::default(),
            )
            .expect("valid");
            assert!(r2.segment.len() >= r.segment.len());
        }
    });
}

#[test]
fn access_model_hw_never_exceeds_sw() {
    check(|rng| {
        let shape = [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(2),
        ][rng.range(0, 4)];
        let in_ch = rng.range(1, 4);
        let dims = arb_dims(rng);
        let mut channels = ChannelSet::Y;
        if in_ch >= 2 {
            channels.insert(Channel::U);
        }
        if in_ch >= 3 {
            channels.insert(Channel::V);
        }
        let call = CallDescriptor::intra(shape, channels, channels);
        let m = vip_core::AccessModel::for_call(&call, dims);
        assert!(m.hardware_accesses <= m.software_accesses);
        assert_eq!(m.hardware_accesses, 2 * dims.pixel_count() as u64);
    });
}

#[test]
fn empirical_counter_matches_model_intra() {
    check(|rng| {
        let f = arb_frame(rng);
        let r = run_intra(&f, &BoxBlur::con8()).expect("valid");
        assert_eq!(
            r.report.counter.total(),
            r.report.access_model().software_accesses
        );
    });
}

#[test]
fn empirical_counter_matches_model_inter() {
    check(|rng| {
        let (a, b) = arb_frame_pair(rng);
        let r = run_inter(&a, &b, &AbsDiff::yuv()).expect("valid");
        assert_eq!(
            r.report.counter.total(),
            r.report.access_model().software_accesses
        );
    });
}

/// Whole-frame labelling is a partition: every pixel gets exactly one
/// label, segments are disjoint and labels are dense from 1.
#[test]
fn labelling_is_a_partition() {
    use vip_core::addressing::labeling::label_all_segments;

    check(|rng| {
        let f = arb_frame(rng);
        let tol = rng.range(0, 60) as u8;
        let l = label_all_segments(
            &f,
            &HomogeneityCriterion::luma(tol),
            SegmentOptions::default(),
        )
        .expect("non-empty frame");
        // Coverage.
        assert!(l.output.pixels().iter().all(|p| p.alpha > 0));
        // Disjoint + complete.
        let total: usize = l.segments.iter().map(Vec::len).sum();
        assert_eq!(total, f.pixel_count());
        // Dense labels: max label == segment count.
        let max_label = l.output.pixels().iter().map(|p| p.alpha).max().unwrap();
        assert_eq!(usize::from(max_label), l.segment_count());
        // Monotonicity: larger tolerance never yields more segments.
        if tol < 59 {
            let l2 = label_all_segments(
                &f,
                &HomogeneityCriterion::luma(tol + 1),
                SegmentOptions::default(),
            )
            .expect("valid");
            assert!(l2.segment_count() <= l.segment_count());
        }
    });
}

/// The ZipWith combinator agrees with running its parts as separate
/// whole-frame calls fused pointwise.
#[test]
fn zip_with_equals_two_pass() {
    use vip_core::ops::compose::ZipWith;

    check(|rng| {
        let f = arb_frame(rng);
        let z = ZipWith::new("mg", Dilate::con8(), Erode::con8(), Sub::luma());
        let one_pass = run_intra(&f, &z).expect("valid").output;
        let d = run_intra(&f, &Dilate::con8()).expect("valid").output;
        let e = run_intra(&f, &Erode::con8()).expect("valid").output;
        let two_pass = run_inter(&d, &e, &Sub::luma()).expect("same dims").output;
        assert_eq!(one_pass.luma_plane(), two_pass.luma_plane());
    });
}

/// Median is always bracketed by erosion and dilation.
#[test]
fn median_bracketed() {
    use vip_core::ops::rank::Median;

    check(|rng| {
        let f = arb_frame(rng);
        let m = run_intra(&f, &Median::con8()).expect("valid").output;
        let lo = run_intra(&f, &Erode::con8()).expect("valid").output;
        let hi = run_intra(&f, &Dilate::con8()).expect("valid").output;
        for (p, px) in m.enumerate() {
            assert!(lo.get(p).y <= px.y && px.y <= hi.get(p).y, "at {}", p);
        }
    });
}

/// Point LUT ops never touch chroma or side channels.
#[test]
fn lut_ops_preserve_non_luma() {
    use vip_core::ops::lut::LumaLut;

    check(|rng| {
        let f = arb_frame(rng);
        let gamma_tenths = rng.range(3, 30) as u8;
        let lut = LumaLut::gamma(f64::from(gamma_tenths) / 10.0);
        let out = run_intra(&f, &lut).expect("valid").output;
        for (p, px) in out.enumerate() {
            let orig = f.get(p);
            assert_eq!(px.u, orig.u);
            assert_eq!(px.v, orig.v);
            assert_eq!(px.alpha, orig.alpha);
            assert_eq!(px.aux, orig.aux);
        }
    });
}
