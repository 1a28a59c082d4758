//! Differential test of the inter row overrides.
//!
//! `AbsDiff` and `ChangeMask` override `InterOp::apply_row`: they store
//! only their output channels into a copy of each frame A pixel. The
//! reference here is the per-pixel definition of an inter call — `apply`
//! on each pair, its output channels merged into the A pixel — and the
//! two must agree pixel for pixel, on rows of every length a lane loop
//! can leave a remainder at (0, 1, 2, 15, 16, 17 pixels) and on a CIF
//! row, with seeded u, v, alpha and aux. Every luminance difference the
//! thresholds sit on (0, 1, 24–26, 253–255) occurs in each long row.
//!
//! The overrides must also keep the channel contract through both entry
//! points: channels outside `input_channels` do not reach the result,
//! and the result differs from the A pixel only in `output_channels`.

use vip_core::ops::arith::{AbsDiff, ChangeMask};
use vip_core::ops::InterOp;
use vip_core::pixel::{Channel, ChannelSet, Pixel};

/// Row lengths: empty, the shortest, each side of a 16-lane boundary,
/// and a CIF row.
const ROWS: [usize; 7] = [0, 1, 2, 15, 16, 17, 352];

/// The ChangeMask thresholds under test: both ends and one inside.
const THRESHOLDS: [u8; 4] = [0, 25, 254, 255];

/// Luminance differences at and next to every threshold.
const EDGES: [u8; 8] = [0, 1, 24, 25, 26, 253, 254, 255];

/// A row of `len` seeded pixels (xorshift64).
fn seeded_row(len: usize, seed: u64) -> Vec<Pixel> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Pixel::from_bits(state)
        })
        .collect()
}

/// A pair of seeded rows of `len` pixels. Two in every three pairs have
/// luminance 0 or 255 in A and a difference from [`EDGES`], so every
/// threshold is met exactly, missed by one and passed by one.
fn rows(len: usize, seed: u64) -> (Vec<Pixel>, Vec<Pixel>) {
    let mut a = seeded_row(len, seed);
    let mut b = seeded_row(len, seed + 1000);
    for (i, (pa, pb)) in a.iter_mut().zip(&mut b).enumerate() {
        let edge = EDGES[(i / 3) % EDGES.len()];
        match i % 3 {
            1 => (pa.y, pb.y) = (0, edge),
            2 => (pa.y, pb.y) = (255, 255 - edge),
            _ => {}
        }
    }
    (a, b)
}

/// Each of [`ROWS`] as a seeded row pair.
fn row_pairs() -> Vec<(Vec<Pixel>, Vec<Pixel>)> {
    ROWS.iter()
        .enumerate()
        .map(|(i, &len)| rows(len, 31 + i as u64))
        .collect()
}

/// The per-pixel definition of an inter call: `apply` on each pair, its
/// output channels merged into the A pixel.
fn reference(op: &impl InterOp, a: &[Pixel], b: &[Pixel]) -> Vec<Pixel> {
    a.iter()
        .zip(b)
        .map(|(&pa, &pb)| {
            let mut out = pa;
            out.merge_channels(op.apply(pa, pb), op.output_channels());
            out
        })
        .collect()
}

/// `op.apply_row` on `(a, b)` appended after a sentinel pixel, which the
/// row must leave in place; returns what the row appended.
fn row(op: &impl InterOp, a: &[Pixel], b: &[Pixel]) -> Vec<Pixel> {
    let sentinel = Pixel::new(1, 2, 3, 4, 5);
    let mut out = vec![sentinel];
    op.apply_row(a, b, &mut out);
    assert_eq!(out[0], sentinel, "{} overwrote earlier pixels", op.name());
    out.split_off(1)
}

/// Checks `op`, called directly and through `&dyn InterOp`, on every row.
fn check(op: &impl InterOp, pairs: &[(Vec<Pixel>, Vec<Pixel>)]) {
    let dynamic: &dyn InterOp = op;
    for (a, b) in pairs {
        let expect = reference(op, a, b);
        assert_eq!(row(op, a, b), expect, "{} on {} pixels", op.name(), a.len());
        assert_eq!(
            row(&dynamic, a, b),
            expect,
            "&dyn {} on {} pixels",
            op.name(),
            a.len()
        );
    }
}

/// The absolute-difference and change-mask kernels under test.
fn kernels() -> (Vec<AbsDiff>, Vec<ChangeMask>) {
    (
        vec![AbsDiff::luma(), AbsDiff::yuv()],
        THRESHOLDS.into_iter().map(ChangeMask::new).collect(),
    )
}

#[test]
fn row_overrides_match_per_pixel_reference() {
    let pairs = row_pairs();
    let (absdiffs, masks) = kernels();
    for op in &absdiffs {
        check(op, &pairs);
    }
    for op in &masks {
        check(op, &pairs);
    }
}

#[test]
fn change_mask_thresholds_are_strict() {
    // The long row holds every edge difference, so each threshold sees
    // a difference equal to it (no mask) and, below 255, one above it.
    let (a, b) = rows(352, 7);
    for threshold in THRESHOLDS {
        let out = row(&ChangeMask::new(threshold), &a, &b);
        assert!(out.iter().any(|px| px.y == threshold && px.alpha == 0));
        if threshold < 255 {
            assert!(out.iter().any(|px| px.y == threshold + 1 && px.alpha == 1));
        }
        assert!(out.iter().all(|px| px.alpha == u16::from(px.y > threshold)));
    }
}

/// `row` with `channel` of every pixel flipped in its low bits.
fn perturbed(row: &[Pixel], channel: Channel) -> Vec<Pixel> {
    row.iter()
        .map(|&px| {
            let mut out = px;
            out.set_channel(channel, px.channel(channel) ^ 0x5a);
            out
        })
        .collect()
}

/// `px` with every channel outside `set` taken from `base`.
fn only(px: Pixel, set: ChannelSet, base: Pixel) -> Pixel {
    let mut out = base;
    out.merge_channels(px, set);
    out
}

/// The two entry points, in the order [`results`] returns them.
const ENTRY_POINTS: [&str; 2] = ["apply", "apply_row"];

/// For each pair, `op`'s result through `apply` and through `apply_row`.
fn results(op: &impl InterOp, a: &[Pixel], b: &[Pixel]) -> Vec<[Pixel; 2]> {
    let rows = row(op, a, b);
    a.iter()
        .zip(b)
        .zip(rows)
        .map(|((&pa, &pb), from_row)| [op.apply(pa, pb), from_row])
        .collect()
}

/// Checks the channel contract of `op` through both entry points.
fn check_channel_contract(op: &impl InterOp, pairs: &[(Vec<Pixel>, Vec<Pixel>)]) {
    let (input, output) = (op.input_channels(), op.output_channels());
    let blank = Pixel::default();
    for (a, b) in pairs {
        let base = results(op, a, b);
        for (i, (&pa, outs)) in a.iter().zip(&base).enumerate() {
            for (what, &out) in ENTRY_POINTS.iter().zip(outs) {
                assert_eq!(
                    only(out, output, pa),
                    out,
                    "{} {what} writes outside its output channels at {i} of {}",
                    op.name(),
                    a.len()
                );
            }
        }
        for channel in Channel::ALL.into_iter().filter(|&c| !input.contains(c)) {
            for (side, other) in [
                ("a", results(op, &perturbed(a, channel), b)),
                ("b", results(op, a, &perturbed(b, channel))),
            ] {
                for (i, (want, got)) in base.iter().zip(&other).enumerate() {
                    for (what, (&want, &got)) in ENTRY_POINTS.iter().zip(want.iter().zip(got)) {
                        assert_eq!(
                            only(want, output, blank),
                            only(got, output, blank),
                            "{} {what} reads {channel:?} of {side} at {i} of {}",
                            op.name(),
                            a.len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn row_overrides_keep_the_channel_contract() {
    let pairs = row_pairs();
    let (absdiffs, masks) = kernels();
    for op in &absdiffs {
        check_channel_contract(op, &pairs);
    }
    for op in &masks {
        check_channel_contract(op, &pairs);
    }
}
