//! Property-based tests of the engine substrate invariants.

// Property tests need the external `proptest` crate, unavailable in
// this offline workspace; the (empty) feature keeps the cfg name valid.
#![cfg(feature = "proptest")]

use proptest::prelude::*;

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
    (4usize..28, 4usize..28).prop_map(|(w, h)| Dims::new(w, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn zbt_input_roundtrip(px in arb_pixel(), idx in 0usize..10_000) {
        let mut zbt = ZbtMemory::new(&EngineConfig::prototype());
        for region in [ZbtRegion::InputA, ZbtRegion::InputB] {
            zbt.write_input_pixel(region, idx, px).unwrap();
            prop_assert_eq!(zbt.read_input_pixel(region, idx).unwrap(), px);
        }
    }

    #[test]
    fn zbt_result_roundtrip(px in arb_pixel(), idx in 0usize..5_000, extra in 1usize..5_000) {
        let total = idx + extra;
        let mut zbt = ZbtMemory::new(&EngineConfig::prototype());
        zbt.write_result_pixel(idx, total, px).unwrap();
        prop_assert_eq!(zbt.read_result_pixel(idx, total).unwrap(), px);
    }

    #[test]
    fn oim_preserves_order(pixels in proptest::collection::vec(arb_pixel(), 1..64)) {
        let mut oim = Oim::new(16, 16, 1);
        for (i, px) in pixels.iter().enumerate() {
            oim.push(i, *px);
        }
        for (i, px) in pixels.iter().enumerate() {
            let (idx, out) = oim.tick().expect("pushed");
            prop_assert_eq!(idx, i);
            prop_assert_eq!(out, *px);
        }
    }

    #[test]
    fn iim_window_agrees_with_software(dims in arb_dims(), cx in 0i32..28, cy in 0i32..28) {
        let centre = Point::new(cx % dims.width as i32, cy % dims.height as i32);
        let frame = Frame::from_fn(dims, |p| Pixel::from_luma(((p.x * 13 + p.y * 7) % 256) as u8));
        let mut iim = Iim::new(dims.height.max(2), dims.width);
        for l in 0..dims.height {
            iim.load_line(l, frame.line(l));
        }
        let hw = iim.fetch_window(centre, Connectivity::Con8, dims);
        // The clamped window by definition, independent of LOAD.
        let samples = Connectivity::Con8
            .offsets_iter()
            .map(|off| (off, frame.get(dims.clamp(centre + off).unwrap())));
        prop_assert_eq!(hw, Window::from_samples(centre, Connectivity::Con8, samples));
    }

    #[test]
    fn matrix_shift_equals_load(
        cols in proptest::collection::vec(
            proptest::collection::vec(arb_pixel(), 3), 4..10)
    ) {
        // Slide a 3-wide window along arbitrary columns; every SHIFT
        // must equal a fresh LOAD at the same centre.
        let lines: Vec<Vec<Pixel>> =
            (0..3).map(|row| cols.iter().map(|col| col[row]).collect()).collect();
        let lines: Vec<&[Pixel]> = lines.iter().map(Vec::as_slice).collect();
        let mut m = Window::load(Point::new(1, 1), Connectivity::Con8, &lines);
        for x in 2..cols.len() as i32 - 1 {
            m.shift(&lines);
            let fresh = Window::load(Point::new(x, 1), Connectivity::Con8, &lines);
            prop_assert_eq!(&m, &fresh);
        }
    }

    #[test]
    fn timeline_monotone_in_pixels(w in 8usize..64, h in 8usize..64) {
        let cfg = EngineConfig::prototype();
        let small = intra_timeline(Dims::new(w, h), 1, &cfg);
        let large = intra_timeline(Dims::new(w * 2, h), 1, &cfg);
        prop_assert!(large.total > small.total);
        prop_assert!(large.input_pci > small.input_pci);
        let inter = inter_timeline(Dims::new(w, h), &cfg);
        prop_assert!(inter.total > small.total, "inter moves twice the input");
    }

    #[test]
    fn engine_intra_always_matches_software(dims in arb_dims(), seed in 0u8..255) {
        let frame = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x as u32 * 31 + p.y as u32 * 17 + seed as u32) % 256) as u8)
        });
        let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let hw = engine.run_intra(&frame, &BoxBlur::con8()).unwrap();
        let sw = vip_core::addressing::intra::run_intra(&frame, &BoxBlur::con8()).unwrap();
        prop_assert_eq!(hw.output, sw.output);
    }
}
