//! Differential test of the intra row sweep.
//!
//! `run_intra` drives each kernel through `IntraOp::apply_row`: one
//! column-shift window per row over clamped line slices. The reference
//! here is the per-pixel definition of an intra call — build the clamped
//! window around each pixel sample by sample with `Window::from_samples`,
//! `apply` the kernel, merge its output channels into the centre pixel —
//! and the two must agree pixel for pixel, for every intra kernel the
//! AddressLib ships, on frames narrower and shorter than the widest
//! window and on one wider frame; the row overrides also on rows of every
//! lane remainder up to a CIF row. Every frame comes twice: with seeded
//! alpha, and with alpha 0 on about half the pixels, so alpha votes go
//! both ways.
//!
//! The kernels that override `apply_row` must also keep the channel
//! contract through both entry points: channels outside
//! `input_channels` do not reach the result, and the result differs from
//! the centre pixel only in `output_channels`.

use vip_core::addressing::intra::run_intra;
use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::neighborhood::{Connectivity, Window, MAX_RADIUS};
use vip_core::ops::arith::{AbsDiff, Sub};
use vip_core::ops::compose::{Then, ZipWith};
use vip_core::ops::filter::{
    Binomial3, BoxBlur, CentralGradient, Convolution, Identity, SobelGradient,
};
use vip_core::ops::lut::{LumaLut, Threshold};
use vip_core::ops::morph::{AlphaMajority, Dilate, Erode, MorphGradient};
use vip_core::ops::rank::{Median, RankFilter};
use vip_core::ops::IntraOp;
use vip_core::pixel::{Channel, ChannelSet, Pixel};

/// Frame sizes (width × height) at and below the widest window: single
/// pixels, single columns and rows, and frames a radius-4 window overhangs
/// on every side.
const DIMS: [(usize, usize); 6] = [(1, 1), (1, 9), (9, 1), (2, 2), (5, 3), (17, 11)];

/// A frame wide enough that each row's interior outweighs its two
/// clamped ends.
const WIDE: (usize, usize) = (37, 5);

/// Three-line frames whose rows leave every remainder a lane loop of 8,
/// 16 or 32 pixels can leave behind its vector body, up to a CIF row.
const LANES: [(usize, usize); 5] = [(15, 3), (16, 3), (17, 3), (33, 3), (352, 3)];

/// xorshift64: a seeded stream of pixel bits.
fn seeded_frame(dims: Dims, seed: u64) -> Frame {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Frame::from_fn(dims, |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Pixel::from_bits(state)
    })
}

/// [`seeded_frame`] with alpha cut to its lowest bit: 0 on about half
/// the pixels, 1 on the rest.
fn binary_alpha_frame(dims: Dims, seed: u64) -> Frame {
    let mut frame = seeded_frame(dims, seed);
    for px in frame.pixels_mut() {
        px.alpha &= 1;
    }
    frame
}

/// Each of `sizes`, with seeded and with binary alpha.
fn frames_of<'a>(sizes: impl IntoIterator<Item = &'a (usize, usize)>) -> Vec<Frame> {
    sizes
        .into_iter()
        .enumerate()
        .flat_map(|(i, &(w, h))| {
            let (dims, seed) = (Dims::new(w, h), 11 + i as u64);
            [seeded_frame(dims, seed), binary_alpha_frame(dims, seed)]
        })
        .collect()
}

/// Each of [`DIMS`] and [`WIDE`], with seeded and with binary alpha.
fn frames() -> Vec<Frame> {
    frames_of(DIMS.iter().chain([&WIDE]))
}

/// The per-pixel definition of a clamped intra call. Each window is
/// built sample by sample from the clamped offset points, sharing no code
/// with the LOAD/SHIFT sweep under test.
fn reference(frame: &Frame, op: &impl IntraOp) -> Frame {
    let dims = frame.dims();
    Frame::from_fn(dims, |p| {
        let samples = op.shape().offsets_iter().map(|off| {
            (
                off,
                frame.get(dims.clamp(p + off).expect("non-empty frame")),
            )
        });
        let window = Window::from_samples(p, op.shape(), samples);
        let mut out = frame.get(p);
        out.merge_channels(op.apply(&window), op.output_channels());
        out
    })
}

/// Checks `op`, called directly and through `&dyn IntraOp`, on every frame.
fn check(op: &impl IntraOp, frames: &[Frame]) {
    let dynamic: &dyn IntraOp = op;
    for frame in frames {
        let expect = reference(frame, op);
        let direct = run_intra(frame, op).expect("non-empty frame");
        assert_eq!(
            direct.output,
            expect,
            "{} ({}) on {}",
            op.name(),
            op.shape(),
            frame.dims()
        );
        let through_dyn = run_intra(frame, &dynamic).expect("non-empty frame");
        assert_eq!(
            through_dyn.output,
            expect,
            "&dyn {} ({}) on {}",
            op.name(),
            op.shape(),
            frame.dims()
        );
    }
}

/// Every square shape up to the nine-line limit, and the two sparse ones.
fn shapes() -> Vec<Connectivity> {
    let mut shapes = vec![Connectivity::Con0, Connectivity::Con4, Connectivity::Con8];
    shapes.extend((0..=MAX_RADIUS).map(|r| Connectivity::Square(r as u8)));
    shapes
}

#[test]
fn filter_kernels_match_per_pixel_reference() {
    let frames = frames();
    check(&Identity::luma(), &frames);
    check(&Identity::yuv(), &frames);
    check(&BoxBlur::con8(), &frames);
    check(&Binomial3::new(), &frames);
    check(&SobelGradient::new(), &frames);
    check(&CentralGradient::new(), &frames);
    for radius in 0..=MAX_RADIUS {
        check(&BoxBlur::with_radius(radius).unwrap(), &frames);
        let side = 2 * radius + 1;
        let taps = (0..side * side).map(|i| (i as i32 % 7) - 3).collect();
        check(
            &Convolution::new("taps", radius, taps, 5, 128).unwrap(),
            &frames,
        );
    }
}

#[test]
fn morph_kernels_match_per_pixel_reference() {
    let frames = frames();
    check(&Erode::con8(), &frames);
    check(&Erode::con4(), &frames);
    check(&Dilate::con8(), &frames);
    check(&Dilate::con4(), &frames);
    check(&MorphGradient::con8(), &frames);
    check(&AlphaMajority::new(), &frames);
    for shape in shapes() {
        check(&Erode::with_shape(shape), &frames);
        check(&Dilate::with_shape(shape), &frames);
        check(&MorphGradient::with_shape(shape), &frames);
    }
}

#[test]
fn rank_kernels_match_per_pixel_reference() {
    let frames = frames();
    check(&Median::con8(), &frames);
    for shape in shapes() {
        check(&Median::with_shape(shape), &frames);
        for permille in [0, 250, 1000] {
            check(&RankFilter::new(shape, permille).unwrap(), &frames);
        }
    }
}

#[test]
fn lut_kernels_match_per_pixel_reference() {
    let frames = frames();
    check(&LumaLut::identity(), &frames);
    check(&LumaLut::invert(), &frames);
    check(&LumaLut::gamma(0.5), &frames);
    check(&LumaLut::stretch(20, 200), &frames);
    check(&LumaLut::from_fn("halve", |v| v / 2), &frames);
    check(&Threshold::binary(100), &frames);
    check(&Threshold::with_levels(60, 10, 240), &frames);
    check(&LumaLut::scale_offset(3, 2, -10), &frames);
    check(&LumaLut::scale_offset(1, 1, 20), &frames);
}

#[test]
fn composed_kernels_match_per_pixel_reference() {
    let frames = frames();
    check(
        &ZipWith::new("gradient", Dilate::con8(), Erode::con8(), Sub::luma()),
        &frames,
    );
    check(
        &ZipWith::new(
            "mixed",
            Dilate::con4(),
            Median::with_shape(Connectivity::Square(4)),
            AbsDiff::yuv(),
        ),
        &frames,
    );
    check(
        &Then::new("edges", SobelGradient::new(), Threshold::binary(100)),
        &frames,
    );
    check(
        &Then::new(
            "smooth",
            BoxBlur::with_radius(3).unwrap(),
            LumaLut::invert(),
        ),
        &frames,
    );
}

/// `frame` with `channel` of every pixel flipped in its low bits.
fn perturbed(frame: &Frame, channel: Channel) -> Frame {
    let mut out = frame.clone();
    for px in out.pixels_mut() {
        px.set_channel(channel, px.channel(channel) ^ 0x5a);
    }
    out
}

/// `px` with every channel outside `set` taken from `base`.
fn only(px: Pixel, set: ChannelSet, base: Pixel) -> Pixel {
    let mut out = base;
    out.merge_channels(px, set);
    out
}

/// The two entry points, in the order [`results`] returns them.
const ENTRY_POINTS: [&str; 2] = ["apply", "apply_row"];

/// For each pixel of `frame`, `op`'s result through `apply` on the
/// gathered window and through `apply_row` in `run_intra`.
fn results(op: &impl IntraOp, frame: &Frame) -> Vec<[Pixel; 2]> {
    let rows = run_intra(frame, op).expect("non-empty frame").output;
    frame
        .enumerate()
        .map(|(p, _)| [op.apply(&Window::gather(frame, p, op.shape())), rows.get(p)])
        .collect()
}

/// Checks the channel contract of `op` through both entry points.
fn check_channel_contract(op: &impl IntraOp, frames: &[Frame]) {
    let (input, output) = (op.input_channels(), op.output_channels());
    let blank = Pixel::default();
    for frame in frames {
        let base = results(op, frame);
        for ((p, centre), outs) in frame.enumerate().zip(&base) {
            for (what, &out) in ENTRY_POINTS.iter().zip(outs) {
                assert_eq!(
                    only(out, output, centre),
                    out,
                    "{} {what} writes outside its output channels at {p} on {}",
                    op.name(),
                    frame.dims()
                );
            }
        }
        for channel in Channel::ALL.into_iter().filter(|&c| !input.contains(c)) {
            let other = results(op, &perturbed(frame, channel));
            for ((p, _), (want, got)) in frame.enumerate().zip(base.iter().zip(&other)) {
                for (what, (&want, &got)) in ENTRY_POINTS.iter().zip(want.iter().zip(got)) {
                    assert_eq!(
                        only(want, output, blank),
                        only(got, output, blank),
                        "{} {what} reads {channel:?} at {p} on {}",
                        op.name(),
                        frame.dims()
                    );
                }
            }
        }
    }
}

#[test]
fn row_overrides_keep_the_channel_contract() {
    let frames = frames();
    check_channel_contract(&SobelGradient::new(), &frames);
    check_channel_contract(&CentralGradient::new(), &frames);
    check_channel_contract(&Binomial3::new(), &frames);
    check_channel_contract(&AlphaMajority::new(), &frames);
}

#[test]
fn row_overrides_match_at_every_lane_remainder() {
    let frames = frames_of(&LANES);
    check(&SobelGradient::new(), &frames);
    check(&CentralGradient::new(), &frames);
    check(&Binomial3::new(), &frames);
    check(&AlphaMajority::new(), &frames);
    check_channel_contract(&SobelGradient::new(), &frames);
    check_channel_contract(&CentralGradient::new(), &frames);
    check_channel_contract(&Binomial3::new(), &frames);
    check_channel_contract(&AlphaMajority::new(), &frames);
}
