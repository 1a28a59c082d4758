//! Property-based tests of the motion-model algebra and the warp/estimate
//! consistency invariants.

// Property tests need the external `proptest` crate, unavailable in
// this offline workspace; the (empty) feature keeps the cfg name valid.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::pixel::Pixel;
use vip_gme::model::{solve_linear, Motion};
use vip_gme::warp::{sample_bilinear, warp_frame};

/// Well-conditioned similarity-ish motions (invertible by construction).
fn arb_motion() -> impl Strategy<Value = Motion> {
    (0.8f64..1.25, -0.3f64..0.3, -8.0f64..8.0, -8.0f64..8.0)
        .prop_map(|(zoom, rot, dx, dy)| Motion::similarity(zoom, rot, dx, dy))
}

fn arb_point() -> impl Strategy<Value = (f64, f64)> {
    (-60.0f64..60.0, -60.0f64..60.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compose_is_associative(a in arb_motion(), b in arb_motion(), c in arb_motion(),
                              (x, y) in arb_point()) {
        let left = a.compose(&b).compose(&c);
        let right = a.compose(&b.compose(&c));
        let (lx, ly) = left.apply(x, y);
        let (rx, ry) = right.apply(x, y);
        prop_assert!((lx - rx).abs() < 1e-6, "{} vs {}", lx, rx);
        prop_assert!((ly - ry).abs() < 1e-6);
    }

    #[test]
    fn identity_is_neutral(m in arb_motion(), (x, y) in arb_point()) {
        let id = Motion::identity();
        for composed in [m.compose(&id), id.compose(&m)] {
            let (ax, ay) = composed.apply(x, y);
            let (bx, by) = m.apply(x, y);
            prop_assert!((ax - bx).abs() < 1e-9);
            prop_assert!((ay - by).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_undoes(m in arb_motion(), (x, y) in arb_point()) {
        let inv = m.inverse().expect("similarities are invertible");
        let (fx, fy) = m.apply(x, y);
        let (bx, by) = inv.apply(fx, fy);
        prop_assert!((bx - x).abs() < 1e-6, "{} vs {}", bx, x);
        prop_assert!((by - y).abs() < 1e-6);
        // And the composition is the identity in displacement terms.
        let round = inv.compose(&m);
        prop_assert!(round.displacement_error(&Motion::identity(), 100.0, 100.0) < 1e-6);
    }

    #[test]
    fn pyramid_scaling_commutes_with_apply(m in arb_motion(), (x, y) in arb_point(),
                                           factor in 1.5f64..4.0) {
        let down = m.scaled_down(factor);
        let (fx, fy) = m.apply(x, y);
        let (dx, dy) = down.apply(x / factor, y / factor);
        prop_assert!((fx / factor - dx).abs() < 1e-9);
        prop_assert!((fy / factor - dy).abs() < 1e-9);
    }

    #[test]
    fn displacement_error_is_a_metric_ish(a in arb_motion(), b in arb_motion()) {
        let w = 80.0;
        let h = 60.0;
        prop_assert!(a.displacement_error(&a, w, h) < 1e-9);
        let ab = a.displacement_error(&b, w, h);
        let ba = b.displacement_error(&a, w, h);
        prop_assert!((ab - ba).abs() < 1e-9, "symmetry");
        prop_assert!(ab >= 0.0);
    }

    #[test]
    fn solve_linear_recovers_solution(
        coeffs in proptest::collection::vec(-3.0f64..3.0, 9),
        x0 in -5.0f64..5.0, x1 in -5.0f64..5.0, x2 in -5.0f64..5.0,
    ) {
        // Build a diagonally dominant 3×3 system (always solvable).
        let mut a: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..3).map(|j| coeffs[i * 3 + j]).collect())
            .collect();
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += 10.0;
        }
        let x = [x0, x1, x2];
        let mut b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a[i][j] * x[j]).sum())
            .collect();
        let solved = solve_linear(&mut a, &mut b).expect("diagonally dominant");
        for (s, e) in solved.iter().zip(&x) {
            prop_assert!((s - e).abs() < 1e-6, "{} vs {}", s, e);
        }
    }

    #[test]
    fn bilinear_interpolation_is_bounded(seed in 0u8..255, x in 0.0f64..15.0, y in 0.0f64..15.0) {
        let f = Frame::from_fn(Dims::new(16, 16), |p| {
            Pixel::from_luma(((p.x * 31 + p.y * 17 + i32::from(seed)) % 256) as u8)
        });
        if let Some(v) = sample_bilinear(&f, x, y) {
            prop_assert!((0.0..=255.0).contains(&v));
        }
    }

    #[test]
    fn warp_identity_is_exact(seed in 0u8..255) {
        let f = Frame::from_fn(Dims::new(20, 14), |p| {
            Pixel::from_luma(((p.x * 13 + p.y * 7 + i32::from(seed)) % 256) as u8)
        });
        let w = warp_frame(&f, &Motion::identity());
        prop_assert_eq!(w.valid, 280);
        for (p, px) in w.frame.enumerate() {
            prop_assert_eq!(px.y, f.get(p).y);
        }
    }

    #[test]
    fn warp_coverage_decreases_with_translation(mag in 0.0f64..10.0) {
        let f = Frame::from_fn(Dims::new(32, 32), |p| Pixel::from_luma(p.x as u8));
        let near = warp_frame(&f, &Motion::translation(mag, 0.0));
        let far = warp_frame(&f, &Motion::translation(mag + 5.0, 0.0));
        prop_assert!(far.valid <= near.valid);
    }
}
