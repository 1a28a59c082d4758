//! Property-based tests of the AddressLib core invariants.

// Property tests need the external `proptest` crate, unavailable in
// this offline workspace; the (empty) feature keeps the cfg name valid.
#![cfg(feature = "proptest")]

use proptest::prelude::*;

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

fn arb_pixel() -> impl Strategy<Value = Pixel> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(y, u, v, a, x)| Pixel::new(y, u, v, a, x))
}

fn arb_dims() -> impl Strategy<Value = Dims> {
    (1usize..24, 1usize..24).prop_map(|(w, h)| Dims::new(w, h))
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    arb_dims().prop_flat_map(|dims| {
        proptest::collection::vec(arb_pixel(), dims.pixel_count())
            .prop_map(move |px| Frame::from_pixels(dims, px).expect("length matches"))
    })
}

fn arb_frame_pair() -> impl Strategy<Value = (Frame, Frame)> {
    arb_dims().prop_flat_map(|dims| {
        let n = dims.pixel_count();
        (
            proptest::collection::vec(arb_pixel(), n),
            proptest::collection::vec(arb_pixel(), n),
        )
            .prop_map(move |(a, b)| {
                (
                    Frame::from_pixels(dims, a).expect("length matches"),
                    Frame::from_pixels(dims, b).expect("length matches"),
                )
            })
    })
}

proptest! {
    #[test]
    fn pixel_word_roundtrip(p in arb_pixel()) {
        let (lo, hi) = p.to_words();
        prop_assert_eq!(Pixel::from_words(lo, hi), p);
        prop_assert_eq!(Pixel::from_bits(p.to_bits()), p);
        // Padding byte always zero.
        prop_assert_eq!(lo >> 24, 0);
    }

    #[test]
    fn strips_partition_frame(dims in arb_dims(), strip_len in 1usize..20) {
        let ss = strips(dims, strip_len);
        let total: usize = ss.iter().map(|s| s.pixel_count(dims)).sum();
        prop_assert_eq!(total, dims.pixel_count());
        // Contiguous, non-overlapping.
        let mut expected_start = 0;
        for s in &ss {
            prop_assert_eq!(s.start, expected_start);
            expected_start += s.len;
        }
    }

    #[test]
    fn absdiff_symmetry_and_triangle(a in arb_pixel(), b in arb_pixel(), c in arb_pixel()) {
        let op = AbsDiff::yuv();
        let ab = op.apply(a, b);
        let ba = op.apply(b, a);
        prop_assert_eq!((ab.y, ab.u, ab.v), (ba.y, ba.u, ba.v));
        // Triangle inequality on luminance.
        let ac = op.apply(a, c);
        let cb = op.apply(c, b);
        prop_assert!(u16::from(ab.y) <= u16::from(ac.y) + u16::from(cb.y));
    }

    #[test]
    fn add_sub_are_monotone_saturating(a in arb_pixel(), b in arb_pixel()) {
        let sum = Add::yuv().apply(a, b);
        prop_assert!(sum.y >= a.y.min(255 - b.y));
        let diff = Sub::yuv().apply(a, b);
        prop_assert!(diff.y <= a.y);
    }

    #[test]
    fn blend_bounded_by_operands(a in arb_pixel(), b in arb_pixel(), w in 0u16..=256) {
        let out = Blend::new(w).apply(a, b);
        let lo = a.y.min(b.y);
        let hi = a.y.max(b.y);
        prop_assert!(out.y >= lo.saturating_sub(1) && out.y <= hi.saturating_add(1),
            "blend {} outside [{}, {}]", out.y, lo, hi);
    }

    #[test]
    fn inter_output_nonop_channels_from_a((a, b) in arb_frame_pair()) {
        let r = run_inter(&a, &b, &AbsDiff::luma()).expect("valid frames");
        for (p, px) in r.output.enumerate() {
            let pa = a.get(p);
            prop_assert_eq!(px.u, pa.u);
            prop_assert_eq!(px.v, pa.v);
            prop_assert_eq!(px.alpha, pa.alpha);
            prop_assert_eq!(px.aux, pa.aux);
        }
    }

    #[test]
    fn intra_identity_is_noop(f in arb_frame()) {
        let r = run_intra(&f, &Identity::yuv()).expect("valid frame");
        // YUV identical; side channels preserved by merge semantics.
        prop_assert_eq!(r.output, f.clone());
    }

    #[test]
    fn erode_le_dilate_everywhere(f in arb_frame()) {
        let e = run_intra(&f, &Erode::con8()).expect("valid").output;
        let d = run_intra(&f, &Dilate::con8()).expect("valid").output;
        for (p, ep) in e.enumerate() {
            let dv = d.get(p).y;
            let orig = f.get(p).y;
            prop_assert!(ep.y <= orig && orig <= dv, "at {}", p);
        }
    }

    #[test]
    fn erode_dilate_idempotent_on_extremes(f in arb_frame()) {
        // erode(erode(f)) <= erode(f), dilate grows monotonically.
        let e1 = run_intra(&f, &Erode::con8()).expect("valid").output;
        let e2 = run_intra(&e1, &Erode::con8()).expect("valid").output;
        for (p, px) in e2.enumerate() {
            prop_assert!(px.y <= e1.get(p).y);
        }
    }

    #[test]
    fn box_blur_preserves_mean_bounds(f in arb_frame()) {
        let stats_in = LumaStats::of(&f).expect("non-empty");
        let blurred = run_intra(&f, &BoxBlur::con8()).expect("valid").output;
        let stats_out = LumaStats::of(&blurred).expect("non-empty");
        prop_assert!(stats_out.min >= stats_in.min);
        prop_assert!(stats_out.max <= stats_in.max);
        // Smoothing never increases variance beyond input (allow rounding).
        prop_assert!(stats_out.variance <= stats_in.variance + 1.0);
    }

    #[test]
    fn sad_is_a_metric((a, b) in arb_frame_pair()) {
        prop_assert_eq!(sad(&a, &a).expect("same dims"), 0);
        prop_assert_eq!(sad(&a, &b).expect("same dims"), sad(&b, &a).expect("same dims"));
        let s = sad(&a, &b).expect("same dims");
        let q = ssd(&a, &b).expect("same dims");
        // SSD >= SAD when every |d| >= 1 contributes d^2 >= d; and both 0 together.
        prop_assert_eq!(s == 0, q == 0);
    }

    #[test]
    fn histogram_total_equals_pixels(f in arb_frame()) {
        let h = Histogram::of(&f, Channel::Y);
        prop_assert_eq!(h.total(), f.pixel_count() as u64);
        let sum: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(sum, h.total());
        // Quantiles are monotone.
        prop_assert!(h.quantile(0.1) <= h.quantile(0.9));
    }

    #[test]
    fn segment_stays_within_frame_and_unique(f in arb_frame(), tol in 0u8..40) {
        let seed = Point::new((f.width() / 2) as i32, (f.height() / 2) as i32);
        let r = run_segment(&f, &[seed], &HomogeneityCriterion::luma(tol),
            SegmentOptions::default()).expect("valid");
        let mut seen = std::collections::HashSet::new();
        for s in &r.segment {
            prop_assert!(f.dims().contains(s.point));
            prop_assert!(seen.insert(s.point), "duplicate {}", s.point);
        }
        // Distances non-decreasing (geodesic order).
        prop_assert!(r.segment.windows(2).all(|w| w[0].distance <= w[1].distance));
        // Larger tolerance never yields a smaller segment.
        if tol < 39 {
            let r2 = run_segment(&f, &[seed], &HomogeneityCriterion::luma(tol + 1),
                SegmentOptions::default()).expect("valid");
            prop_assert!(r2.segment.len() >= r.segment.len());
        }
    }

    #[test]
    fn access_model_hw_never_exceeds_sw(
        shape_idx in 0usize..4,
        in_ch in 1usize..=3,
        dims in arb_dims(),
    ) {
        let shape = [Connectivity::Con0, Connectivity::Con4, Connectivity::Con8,
                     Connectivity::Square(2)][shape_idx];
        let mut channels = ChannelSet::Y;
        if in_ch >= 2 { channels.insert(Channel::U); }
        if in_ch >= 3 { channels.insert(Channel::V); }
        let call = CallDescriptor::intra(shape, channels, channels);
        let m = vip_core::AccessModel::for_call(&call, dims);
        prop_assert!(m.hardware_accesses <= m.software_accesses);
        prop_assert_eq!(m.hardware_accesses, 2 * dims.pixel_count() as u64);
    }

    #[test]
    fn empirical_counter_matches_model_intra(f in arb_frame()) {
        let r = run_intra(&f, &BoxBlur::con8()).expect("valid");
        prop_assert_eq!(r.report.counter.total(), r.report.access_model().software_accesses);
    }

    #[test]
    fn empirical_counter_matches_model_inter((a, b) in arb_frame_pair()) {
        let r = run_inter(&a, &b, &AbsDiff::yuv()).expect("valid");
        prop_assert_eq!(r.report.counter.total(), r.report.access_model().software_accesses);
    }
}

proptest! {
    /// Whole-frame labelling is a partition: every pixel gets exactly one
    /// label, segments are disjoint and labels are dense from 1.
    #[test]
    fn labelling_is_a_partition(f in arb_frame(), tol in 0u8..60) {
        use vip_core::addressing::labeling::label_all_segments;
        use vip_core::addressing::segment::SegmentOptions;
        use vip_core::ops::segment_ops::HomogeneityCriterion;

        let l = label_all_segments(&f, &HomogeneityCriterion::luma(tol),
            SegmentOptions::default()).expect("non-empty frame");
        // Coverage.
        prop_assert!(l.output.pixels().iter().all(|p| p.alpha > 0));
        // Disjoint + complete.
        let total: usize = l.segments.iter().map(Vec::len).sum();
        prop_assert_eq!(total, f.pixel_count());
        // Dense labels: max label == segment count.
        let max_label = l.output.pixels().iter().map(|p| p.alpha).max().unwrap();
        prop_assert_eq!(usize::from(max_label), l.segment_count());
        // Monotonicity: larger tolerance never yields more segments.
        if tol < 59 {
            let l2 = label_all_segments(&f, &HomogeneityCriterion::luma(tol + 1),
                SegmentOptions::default()).expect("valid");
            prop_assert!(l2.segment_count() <= l.segment_count());
        }
    }

    /// The ZipWith combinator agrees with running its parts as separate
    /// whole-frame calls fused pointwise.
    #[test]
    fn zip_with_equals_two_pass(f in arb_frame()) {
        use vip_core::ops::compose::ZipWith;
        use vip_core::ops::morph::{Dilate, Erode};

        let z = ZipWith::new("mg", Dilate::con8(), Erode::con8(), Sub::luma());
        let one_pass = run_intra(&f, &z).expect("valid").output;
        let d = run_intra(&f, &Dilate::con8()).expect("valid").output;
        let e = run_intra(&f, &Erode::con8()).expect("valid").output;
        let two_pass = vip_core::addressing::inter::run_inter(&d, &e, &Sub::luma())
            .expect("same dims").output;
        prop_assert_eq!(one_pass.luma_plane(), two_pass.luma_plane());
    }

    /// Median is always bracketed by erosion and dilation.
    #[test]
    fn median_bracketed(f in arb_frame()) {
        use vip_core::ops::rank::Median;
        use vip_core::ops::morph::{Dilate, Erode};
        let m = run_intra(&f, &Median::con8()).expect("valid").output;
        let lo = run_intra(&f, &Erode::con8()).expect("valid").output;
        let hi = run_intra(&f, &Dilate::con8()).expect("valid").output;
        for (p, px) in m.enumerate() {
            prop_assert!(lo.get(p).y <= px.y && px.y <= hi.get(p).y, "at {}", p);
        }
    }

    /// Point LUT ops commute with any permutation of application order on
    /// disjoint channels and never touch chroma/side channels.
    #[test]
    fn lut_ops_preserve_non_luma(f in arb_frame(), gamma_tenths in 3u8..30) {
        use vip_core::ops::lut::LumaLut;
        let lut = LumaLut::gamma(f64::from(gamma_tenths) / 10.0);
        let out = run_intra(&f, &lut).expect("valid").output;
        for (p, px) in out.enumerate() {
            let orig = f.get(p);
            prop_assert_eq!(px.u, orig.u);
            prop_assert_eq!(px.v, orig.v);
            prop_assert_eq!(px.alpha, orig.alpha);
            prop_assert_eq!(px.aux, orig.aux);
        }
    }
}
