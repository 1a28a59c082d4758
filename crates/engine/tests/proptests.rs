//! Property tests of the engine substrate invariants.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded xorshift64
//! stream, one seed per case, so every run checks the same inputs and a
//! failure names the case that broke it.

use std::panic::{self, AssertUnwindSafe};

use vip_core::frame::Frame;
use vip_core::geometry::{Dims, Point};
use vip_core::neighborhood::{Connectivity, Window};
use vip_core::ops::filter::BoxBlur;
use vip_core::pixel::Pixel;
use vip_engine::config::EngineConfig;
use vip_engine::engine::AddressEngine;
use vip_engine::iim::Iim;
use vip_engine::oim::Oim;
use vip_engine::timing::{inter_timeline, intra_timeline};
use vip_engine::zbt::{ZbtMemory, ZbtRegion};

/// Cases per property.
const CASES: u64 = 48;

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
    Dims::new(rng.range(4, 28), rng.range(4, 28))
}

#[test]
fn zbt_input_roundtrip() {
    check(|rng| {
        let px = arb_pixel(rng);
        let idx = rng.range(0, 10_000);
        let mut zbt = ZbtMemory::new(&EngineConfig::prototype());
        for region in [ZbtRegion::InputA, ZbtRegion::InputB] {
            zbt.write_input_pixel(region, idx, px).unwrap();
            assert_eq!(zbt.read_input_pixel(region, idx).unwrap(), px);
        }
    });
}

#[test]
fn zbt_result_roundtrip() {
    check(|rng| {
        let px = arb_pixel(rng);
        let idx = rng.range(0, 5_000);
        let total = idx + rng.range(1, 5_000);
        let mut zbt = ZbtMemory::new(&EngineConfig::prototype());
        zbt.write_result_pixel(idx, total, px).unwrap();
        assert_eq!(zbt.read_result_pixel(idx, total).unwrap(), px);
    });
}

#[test]
fn oim_preserves_order() {
    check(|rng| {
        let pixels: Vec<Pixel> = (0..rng.range(1, 64)).map(|_| arb_pixel(rng)).collect();
        let mut oim = Oim::new(16, 16, 1);
        for (i, px) in pixels.iter().enumerate() {
            oim.push(i, *px);
        }
        for (i, px) in pixels.iter().enumerate() {
            let (idx, out) = oim.tick().expect("pushed");
            assert_eq!(idx, i);
            assert_eq!(out, *px);
        }
    });
}

#[test]
fn iim_window_agrees_with_software() {
    check(|rng| {
        let dims = arb_dims(rng);
        let (cx, cy) = (rng.range(0, 28) as i32, rng.range(0, 28) as i32);
        let centre = Point::new(cx % dims.width as i32, cy % dims.height as i32);
        let frame = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 13 + p.y * 7) % 256) as u8)
        });
        let mut iim = Iim::new(dims.height.max(2), dims.width);
        for l in 0..dims.height {
            iim.load_line(l, frame.line(l));
        }
        let hw = iim.fetch_window(centre, Connectivity::Con8, dims);
        // The clamped window by definition, independent of LOAD.
        let samples = Connectivity::Con8
            .offsets_iter()
            .map(|off| (off, frame.get(dims.clamp(centre + off).unwrap())));
        assert_eq!(
            hw,
            Window::from_samples(centre, Connectivity::Con8, samples)
        );
    });
}

#[test]
fn matrix_shift_equals_load() {
    check(|rng| {
        let cols: Vec<[Pixel; 3]> = (0..rng.range(4, 10))
            .map(|_| [arb_pixel(rng), arb_pixel(rng), arb_pixel(rng)])
            .collect();
        // Slide a 3-wide window along arbitrary columns; every SHIFT
        // must equal a fresh LOAD at the same centre.
        let lines: Vec<Vec<Pixel>> = (0..3)
            .map(|row| cols.iter().map(|col| col[row]).collect())
            .collect();
        let lines: Vec<&[Pixel]> = lines.iter().map(Vec::as_slice).collect();
        let mut m = Window::load(Point::new(1, 1), Connectivity::Con8, &lines);
        for x in 2..cols.len() as i32 - 1 {
            m.shift(&lines);
            let fresh = Window::load(Point::new(x, 1), Connectivity::Con8, &lines);
            assert_eq!(&m, &fresh);
        }
    });
}

#[test]
fn timeline_monotone_in_pixels() {
    check(|rng| {
        let (w, h) = (rng.range(8, 64), rng.range(8, 64));
        let cfg = EngineConfig::prototype();
        let small = intra_timeline(Dims::new(w, h), 1, &cfg);
        let large = intra_timeline(Dims::new(w * 2, h), 1, &cfg);
        assert!(large.total > small.total);
        assert!(large.input_pci > small.input_pci);
        let inter = inter_timeline(Dims::new(w, h), &cfg);
        assert!(inter.total > small.total, "inter moves twice the input");
    });
}

#[test]
fn engine_intra_always_matches_software() {
    check(|rng| {
        let dims = arb_dims(rng);
        let seed = rng.range(0, 255) as u32;
        let frame = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x as u32 * 31 + p.y as u32 * 17 + seed) % 256) as u8)
        });
        let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let hw = engine.run_intra(&frame, &BoxBlur::con8()).unwrap();
        let sw = vip_core::addressing::intra::run_intra(&frame, &BoxBlur::con8()).unwrap();
        assert_eq!(hw.output, sw.output);
    });
}
