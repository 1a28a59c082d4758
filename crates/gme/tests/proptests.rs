//! Property tests of the motion-model algebra and the warp/estimate
//! consistency invariants.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded xorshift64
//! stream, one seed per case, so every run checks the same inputs and a
//! failure names the case that broke it.

use std::panic::{self, AssertUnwindSafe};

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::pixel::Pixel;
use vip_gme::model::{solve_linear, Motion};
use vip_gme::warp::{sample_bilinear, warp_frame};

/// Cases per property.
const CASES: u64 = 64;

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
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// A seed byte in `0..255`.
    fn seed(&mut self) -> i32 {
        (self.next() % 255) as i32
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

/// Well-conditioned similarity-ish motions (invertible by construction).
fn arb_motion(rng: &mut Rng) -> Motion {
    Motion::similarity(
        rng.uniform(0.8, 1.25),
        rng.uniform(-0.3, 0.3),
        rng.uniform(-8.0, 8.0),
        rng.uniform(-8.0, 8.0),
    )
}

fn arb_point(rng: &mut Rng) -> (f64, f64) {
    (rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))
}

#[test]
fn compose_is_associative() {
    check(|rng| {
        let (a, b, c) = (arb_motion(rng), arb_motion(rng), arb_motion(rng));
        let (x, y) = arb_point(rng);
        let left = a.compose(&b).compose(&c);
        let right = a.compose(&b.compose(&c));
        let (lx, ly) = left.apply(x, y);
        let (rx, ry) = right.apply(x, y);
        assert!((lx - rx).abs() < 1e-6, "{} vs {}", lx, rx);
        assert!((ly - ry).abs() < 1e-6);
    });
}

#[test]
fn identity_is_neutral() {
    check(|rng| {
        let m = arb_motion(rng);
        let (x, y) = arb_point(rng);
        let id = Motion::identity();
        for composed in [m.compose(&id), id.compose(&m)] {
            let (ax, ay) = composed.apply(x, y);
            let (bx, by) = m.apply(x, y);
            assert!((ax - bx).abs() < 1e-9);
            assert!((ay - by).abs() < 1e-9);
        }
    });
}

#[test]
fn inverse_undoes() {
    check(|rng| {
        let m = arb_motion(rng);
        let (x, y) = arb_point(rng);
        let inv = m.inverse().expect("similarities are invertible");
        let (fx, fy) = m.apply(x, y);
        let (bx, by) = inv.apply(fx, fy);
        assert!((bx - x).abs() < 1e-6, "{} vs {}", bx, x);
        assert!((by - y).abs() < 1e-6);
        // And the composition is the identity in displacement terms.
        let round = inv.compose(&m);
        assert!(round.displacement_error(&Motion::identity(), 100.0, 100.0) < 1e-6);
    });
}

#[test]
fn pyramid_scaling_commutes_with_apply() {
    check(|rng| {
        let m = arb_motion(rng);
        let (x, y) = arb_point(rng);
        let factor = rng.uniform(1.5, 4.0);
        let down = m.scaled_down(factor);
        let (fx, fy) = m.apply(x, y);
        let (dx, dy) = down.apply(x / factor, y / factor);
        assert!((fx / factor - dx).abs() < 1e-9);
        assert!((fy / factor - dy).abs() < 1e-9);
    });
}

#[test]
fn displacement_error_is_a_metric_ish() {
    check(|rng| {
        let (a, b) = (arb_motion(rng), arb_motion(rng));
        let w = 80.0;
        let h = 60.0;
        assert!(a.displacement_error(&a, w, h) < 1e-9);
        let ab = a.displacement_error(&b, w, h);
        let ba = b.displacement_error(&a, w, h);
        assert!((ab - ba).abs() < 1e-9, "symmetry");
        assert!(ab >= 0.0);
    });
}

#[test]
fn solve_linear_recovers_solution() {
    check(|rng| {
        // Build a diagonally dominant 3×3 system (always solvable).
        let mut a: [[f64; 3]; 3] =
            std::array::from_fn(|_| std::array::from_fn(|_| rng.uniform(-3.0, 3.0)));
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += 10.0;
        }
        let x: [f64; 3] = std::array::from_fn(|_| rng.uniform(-5.0, 5.0));
        let mut b: [f64; 3] = std::array::from_fn(|i| (0..3).map(|j| a[i][j] * x[j]).sum());
        let solved = solve_linear(&mut a, &mut b).expect("diagonally dominant");
        for (s, e) in solved.iter().zip(&x) {
            assert!((s - e).abs() < 1e-6, "{} vs {}", s, e);
        }
    });
}

#[test]
fn bilinear_interpolation_is_bounded() {
    check(|rng| {
        let seed = rng.seed();
        let (x, y) = (rng.uniform(0.0, 15.0), rng.uniform(0.0, 15.0));
        let f = Frame::from_fn(Dims::new(16, 16), |p| {
            Pixel::from_luma(((p.x * 31 + p.y * 17 + seed) % 256) as u8)
        });
        if let Some(v) = sample_bilinear(&f, x, y) {
            assert!((0.0..=255.0).contains(&v));
        }
    });
}

#[test]
fn warp_identity_is_exact() {
    check(|rng| {
        let seed = rng.seed();
        let f = Frame::from_fn(Dims::new(20, 14), |p| {
            Pixel::from_luma(((p.x * 13 + p.y * 7 + seed) % 256) as u8)
        });
        let w = warp_frame(&f, &Motion::identity());
        assert_eq!(w.valid, 280);
        for (p, px) in w.frame.enumerate() {
            assert_eq!(px.y, f.get(p).y);
        }
    });
}

#[test]
fn warp_coverage_decreases_with_translation() {
    check(|rng| {
        let mag = rng.uniform(0.0, 10.0);
        let f = Frame::from_fn(Dims::new(32, 32), |p| Pixel::from_luma(p.x as u8));
        let near = warp_frame(&f, &Motion::translation(mag, 0.0));
        let far = warp_frame(&f, &Motion::translation(mag + 5.0, 0.0));
        assert!(far.valid <= near.valid);
    });
}
