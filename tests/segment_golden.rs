//! Pinned segment addressing and segment-indexed addressing.
//!
//! perfbench's `surveillance` check compares the engine pipeline with a
//! reference built from the same `run_segment` and
//! `accumulate_segment_stats`, so a fault in either would move both sides
//! in step and still pass. The values in `tests/golden/segment_calls.txt`
//! pin the absolute result instead: the output pixel bits, the visited
//! segment list and the access counts of seeded segment calls, the
//! statistics tables of four QCIF surveillance scenes and of a labelled
//! frame, and a `label_all_segments` run. They must not change unless
//! the software AddressLib is meant to.

use std::fmt::Write as _;

use vip::core::addressing::indexed::{accumulate_segment_stats, SegmentRecord, SegmentTable};
use vip::core::addressing::inter::run_inter;
use vip::core::addressing::intra::run_intra;
use vip::core::addressing::labeling::label_all_segments;
use vip::core::addressing::segment::{run_segment, run_segment_op, SegmentOptions, SegmentResult};
use vip::core::frame::Frame;
use vip::core::geometry::{Dims, ImageFormat, Point};
use vip::core::neighborhood::Connectivity;
use vip::core::ops::arith::ChangeMask;
use vip::core::ops::filter::SobelGradient;
use vip::core::ops::morph::{AlphaMajority, Dilate};
use vip::core::ops::segment_ops::{
    AlphaMaskCriterion, BandCriterion, HomogeneityCriterion, NeighborCriterion,
};
use vip::core::pixel::Pixel;
use vip::video::rng::XorShift64;
use vip::video::{Degradation, ForegroundObject, TestSequence};

const GOLDEN: &str = include_str!("golden/segment_calls.txt");

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn frame(&mut self, f: &Frame) -> &mut Self {
        for px in f.pixels() {
            self.word(
                u64::from(px.y)
                    | u64::from(px.u) << 8
                    | u64::from(px.v) << 16
                    | u64::from(px.alpha) << 24
                    | u64::from(px.aux) << 40,
            );
        }
        self
    }
}

/// A seeded frame of 6×6 luma blocks at three levels with noise, chroma
/// from the position, and an alpha mask of blocks with speckles.
fn seeded_frame(dims: Dims, seed: u64) -> Frame {
    let mut rng = XorShift64::new(seed);
    let cols = dims.width.div_ceil(6);
    let blocks: Vec<u64> = (0..cols * dims.height.div_ceil(6))
        .map(|_| rng.next_u64())
        .collect();
    Frame::from_fn(dims, |p| {
        let block = blocks[(p.y as usize / 6) * cols + p.x as usize / 6];
        let noise = rng.next_u64();
        let level = [40, 120, 200][(block % 3) as usize];
        let speckle = noise >> 8 & 31 == 0;
        let masked = (block >> 8 & 1 == 1) != speckle;
        Pixel {
            y: level + (noise % 8) as u8,
            u: (p.x * 5) as u8,
            v: (p.y * 3) as u8,
            alpha: u16::from(masked),
            aux: (noise >> 16) as u16,
        }
    })
}

/// Two seeds drawn inside the frame.
fn seeds(dims: Dims, seed: u64) -> [Point; 2] {
    let mut rng = XorShift64::new(seed ^ 0x5eed);
    let mut draw = || {
        let w = rng.next_u64();
        Point::new(
            (w % dims.width as u64) as i32,
            ((w >> 32) % dims.height as u64) as i32,
        )
    };
    [draw(), draw()]
}

fn call_line(out: &mut String, case: &str, r: &SegmentResult) {
    let mut seg = Fnv::new();
    for s in &r.segment {
        seg.word(((s.point.x as u64) << 32) | u64::from(s.point.y as u32))
            .word(u64::from(s.distance));
    }
    let report = &r.report;
    writeln!(
        out,
        "{case}: px={} maxd={} out={:016x} seg={:016x} processed={} applies={} reads={} writes={}",
        r.segment.len(),
        r.max_distance(),
        Fnv::new().frame(&r.output).0,
        seg.0,
        report.pixels_processed,
        report.op_applies,
        report.counter.reads(),
        report.counter.writes()
    )
    .unwrap();
}

fn record_line(out: &mut String, label: usize, r: &SegmentRecord) {
    writeln!(
        out,
        "  {label}: area={} luma_sum={} min={:?} max={:?}",
        r.area, r.luma_sum, r.min, r.max
    )
    .unwrap();
}

fn table_digest(table: &SegmentTable<SegmentRecord>) -> u64 {
    let mut d = Fnv::new();
    for r in table.iter() {
        d.word(r.area)
            .word(r.luma_sum)
            .word(((r.min.0 as u64) << 32) | u64::from(r.min.1 as u32))
            .word(((r.max.0 as u64) << 32) | u64::from(r.max.1 as u32));
    }
    d.0
}

fn segment_calls(out: &mut String) {
    let criteria: [(&str, &dyn NeighborCriterion); 3] = [
        ("homogeneity(12)", &HomogeneityCriterion::luma(12)),
        ("band(100,210)", &BandCriterion::new(100, 210)),
        ("alpha_mask", &AlphaMaskCriterion::new()),
    ];
    let all_dims = [
        Dims::new(1, 1),
        Dims::new(1, 9),
        Dims::new(9, 1),
        Dims::new(37, 23),
        ImageFormat::Qcif.dims(),
    ];
    for dims in all_dims {
        for seed in [1, 2] {
            let frame = seeded_frame(dims, seed);
            let seeds = seeds(dims, seed);
            for (name, criterion) in criteria {
                for connectivity in [Connectivity::Con4, Connectivity::Con8] {
                    for max_pixels in [None, Some(40)] {
                        let options = SegmentOptions {
                            connectivity,
                            max_pixels,
                            label: 5,
                        };
                        let case = format!(
                            "{dims} seed={seed} {name} {connectivity:?} max={max_pixels:?}"
                        );
                        let r = run_segment(&frame, &seeds, &criterion, options).unwrap();
                        call_line(out, &case, &r);
                    }
                }
            }
            let options = SegmentOptions::default();
            let homogeneity = HomogeneityCriterion::luma(12);
            let r = run_segment_op(&frame, &seeds, &homogeneity, &SobelGradient::new(), options)
                .unwrap();
            call_line(out, &format!("{dims} seed={seed} sobel in Con4"), &r);
            let dilate = Dilate::with_shape(Connectivity::Square(2));
            let options = SegmentOptions {
                connectivity: Connectivity::Con8,
                ..options
            };
            let r = run_segment_op(&frame, &seeds, &homogeneity, &dilate, options).unwrap();
            call_line(out, &format!("{dims} seed={seed} dilate(r2) in Con8"), &r);
        }
    }
}

/// The segment stages of the `surveillance_diff` pipeline, in software,
/// on four QCIF camera scenes: one per Table 3 sequence with a walker
/// intruder and sensor noise.
fn surveillance_stats(out: &mut String) {
    let dims = ImageFormat::Qcif.dims();
    let mut rng = XorShift64::new(6);
    for base in TestSequence::table3() {
        let seq = base.scaled(dims.width, dims.height, 41);
        let at = |rng: &mut XorShift64, extent: usize| {
            34 + (rng.next_u64() % (extent - 68) as u64) as i32
        };
        let (x, y) = (at(&mut rng, dims.width), at(&mut rng, dims.height));
        let camera = Degradation::new(rng.next_u64())
            .with_noise(1.0)
            .with_object(ForegroundObject::walker(x, y, 0.0, 0.0, 17));
        let background = seq.render_frame(40);
        let current = camera.apply(&seq, 40);
        let diff = run_inter(&current, &background, &ChangeMask::new(25))
            .unwrap()
            .output;
        let clean = run_intra(&diff, &AlphaMajority::new()).unwrap().output;
        let seed = clean
            .enumerate()
            .find(|(_, px)| px.alpha != 0)
            .map_or(Point::new(88, 72), |(p, _)| p);
        let seg = run_segment(
            &clean,
            &[seed],
            &AlphaMaskCriterion::new(),
            SegmentOptions::default(),
        )
        .unwrap();
        call_line(
            out,
            &format!("surveillance {} seed={seed}", seq.name()),
            &seg,
        );
        let table = accumulate_segment_stats(&seg.output).unwrap();
        writeln!(
            out,
            "surveillance {} stats: entries={} reads={} writes={}",
            seq.name(),
            table.len(),
            table.accesses().reads(),
            table.accesses().writes()
        )
        .unwrap();
        for (label, r) in table.iter().enumerate() {
            record_line(out, label, r);
        }
    }
}

/// `label_all_segments` over a seeded QCIF frame and the statistics of
/// its labelling.
fn labelling(out: &mut String) {
    let frame = seeded_frame(ImageFormat::Qcif.dims(), 3);
    let l = label_all_segments(
        &frame,
        &HomogeneityCriterion::luma(6),
        SegmentOptions::default(),
    )
    .unwrap();
    let table = accumulate_segment_stats(&l.output).unwrap();
    writeln!(
        out,
        "labelling: segments={} largest={} out={:016x} reads={} writes={} stats: entries={} digest={:016x} reads={} writes={}",
        l.segment_count(),
        l.largest_segment(),
        Fnv::new().frame(&l.output).0,
        l.counter.reads(),
        l.counter.writes(),
        table.len(),
        table_digest(&table),
        table.accesses().reads(),
        table.accesses().writes()
    )
    .unwrap();
}

#[test]
fn segment_calls_match_the_golden() {
    let mut out = String::new();
    segment_calls(&mut out);
    surveillance_stats(&mut out);
    labelling(&mut out);
    for (n, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {}", n + 1);
    }
    assert_eq!(out.lines().count(), GOLDEN.lines().count(), "line count");
}
