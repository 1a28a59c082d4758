//! Global motion models: translational, affine and perspective, as used
//! by the MPEG-7 eXperimentation Model's global motion estimation.
//!
//! A model maps coordinates of the *reference* frame into the *current*
//! frame: `x' = W(x; p)`. Coordinates are centred (origin at the frame
//! centre) for numerical conditioning.
//!
//! # Examples
//!
//! ```
//! use vip_gme::model::Motion;
//!
//! let m = Motion::translation(2.0, -1.0);
//! assert_eq!(m.apply(10.0, 5.0), (12.0, 4.0));
//! let inv = m.inverse().unwrap();
//! assert_eq!(inv.apply(12.0, 4.0), (10.0, 5.0));
//! ```

use core::fmt;

/// The motion-model family (MPEG-7 GME supports a hierarchy of models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MotionModel {
    /// 2 parameters: pure translation.
    Translational,
    /// 6 parameters: full affine.
    Affine,
    /// 8 parameters: planar perspective (homography).
    Perspective,
}

impl MotionModel {
    /// Number of free parameters.
    #[must_use]
    pub const fn parameter_count(self) -> usize {
        match self {
            MotionModel::Translational => 2,
            MotionModel::Affine => 6,
            MotionModel::Perspective => 8,
        }
    }
}

impl fmt::Display for MotionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MotionModel::Translational => f.write_str("translational"),
            MotionModel::Affine => f.write_str("affine"),
            MotionModel::Perspective => f.write_str("perspective"),
        }
    }
}

/// A concrete global motion: a homography stored as nine coefficients
/// (row-major 3×3, `h22` fixed at 1), degenerating gracefully to affine
/// and translational forms.
///
/// `x' = (h0·x + h1·y + h2) / (h6·x + h7·y + 1)`,
/// `y' = (h3·x + h4·y + h5) / (h6·x + h7·y + 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Motion {
    /// The eight free coefficients `[h0, h1, h2, h3, h4, h5, h6, h7]`.
    pub h: [f64; 8],
}

impl Motion {
    /// The identity motion.
    #[must_use]
    pub const fn identity() -> Self {
        Motion {
            h: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        }
    }

    /// A pure translation.
    #[must_use]
    pub const fn translation(dx: f64, dy: f64) -> Self {
        Motion {
            h: [1.0, 0.0, dx, 0.0, 1.0, dy, 0.0, 0.0],
        }
    }

    /// An affine motion from `x' = a0 + a1·x + a2·y`,
    /// `y' = a3 + a4·x + a5·y` (the coefficient order of
    /// `CameraPose::affine` in `vip-video`).
    #[must_use]
    pub const fn affine(a: [f64; 6]) -> Self {
        Motion {
            h: [a[1], a[2], a[0], a[4], a[5], a[3], 0.0, 0.0],
        }
    }

    /// A similarity motion: zoom, rotation and translation.
    #[must_use]
    pub fn similarity(zoom: f64, rot: f64, dx: f64, dy: f64) -> Self {
        let (s, c) = rot.sin_cos();
        Motion {
            h: [zoom * c, -zoom * s, dx, zoom * s, zoom * c, dy, 0.0, 0.0],
        }
    }

    /// The tightest family containing this motion.
    #[must_use]
    pub fn model(&self) -> MotionModel {
        let h = &self.h;
        if h[6] != 0.0 || h[7] != 0.0 {
            MotionModel::Perspective
        } else if h[0] != 1.0 || h[1] != 0.0 || h[3] != 0.0 || h[4] != 1.0 {
            MotionModel::Affine
        } else {
            MotionModel::Translational
        }
    }

    /// Whether the motion is (numerically) the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        let id = Motion::identity();
        self.h.iter().zip(&id.h).all(|(a, b)| (a - b).abs() < 1e-12)
    }

    /// Applies the motion to a point.
    #[must_use]
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        let h = &self.h;
        let w = h[6] * x + h[7] * y + 1.0;
        let w = if w.abs() < 1e-12 { 1e-12 } else { w };
        (
            (h[0] * x + h[1] * y + h[2]) / w,
            (h[3] * x + h[4] * y + h[5]) / w,
        )
    }

    /// The motion restricted to row `y`, for the per-pixel passes:
    /// [`RowMap::at`]`(x)` equals `self.apply(x, y)` bit for bit for
    /// finite `x` and `y`, with `h1·y`, `h4·y` and `h7·y` computed once
    /// per row. [`Motion::apply`] stays the reference.
    #[must_use]
    pub(crate) fn row(&self, y: f64) -> RowMap {
        let h = self.h;
        RowMap {
            h,
            h1y: h[1] * y,
            h4y: h[4] * y,
            h7y: h[7] * y,
            projective: h[6] != 0.0 || h[7] != 0.0,
        }
    }

    /// The translation component `(h2, h5)`.
    #[must_use]
    pub const fn translation_part(&self) -> (f64, f64) {
        (self.h[2], self.h[5])
    }

    /// Composition `self ∘ other`: applies `other` first.
    #[must_use]
    pub fn compose(&self, other: &Motion) -> Motion {
        let a = self.to_matrix();
        let b = other.to_matrix();
        let mut m = [[0.0f64; 3]; 3];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| a[i][k] * b[k][j]).sum();
            }
        }
        Motion::from_matrix(m)
    }

    /// The inverse motion, or `None` when singular.
    #[must_use]
    pub fn inverse(&self) -> Option<Motion> {
        let m = self.to_matrix();
        let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
        if det.abs() < 1e-12 {
            return None;
        }
        let inv = [
            [
                (m[1][1] * m[2][2] - m[1][2] * m[2][1]) / det,
                (m[0][2] * m[2][1] - m[0][1] * m[2][2]) / det,
                (m[0][1] * m[1][2] - m[0][2] * m[1][1]) / det,
            ],
            [
                (m[1][2] * m[2][0] - m[1][0] * m[2][2]) / det,
                (m[0][0] * m[2][2] - m[0][2] * m[2][0]) / det,
                (m[0][2] * m[1][0] - m[0][0] * m[1][2]) / det,
            ],
            [
                (m[1][0] * m[2][1] - m[1][1] * m[2][0]) / det,
                (m[0][1] * m[2][0] - m[0][0] * m[2][1]) / det,
                (m[0][0] * m[1][1] - m[0][1] * m[1][0]) / det,
            ],
        ];
        Some(Motion::from_matrix(inv))
    }

    /// Scales the motion to a pyramid level `factor` times smaller
    /// (coordinates divide by `factor`): translations shrink, the linear
    /// part is preserved, perspective terms grow.
    #[must_use]
    pub fn scaled_down(&self, factor: f64) -> Motion {
        let h = &self.h;
        Motion {
            h: [
                h[0],
                h[1],
                h[2] / factor,
                h[3],
                h[4],
                h[5] / factor,
                h[6] * factor,
                h[7] * factor,
            ],
        }
    }

    /// Scales the motion to a pyramid level `factor` times larger.
    #[must_use]
    pub fn scaled_up(&self, factor: f64) -> Motion {
        self.scaled_down(1.0 / factor)
    }

    /// The parameter-space distance to another motion, evaluated as mean
    /// displacement difference over a `w×h` centred grid — the metric the
    /// validation tests use against ground truth.
    #[must_use]
    pub fn displacement_error(&self, other: &Motion, w: f64, hgt: f64) -> f64 {
        let mut total = 0.0;
        let mut n = 0;
        let steps = 8;
        for iy in 0..=steps {
            for ix in 0..=steps {
                let x = -w / 2.0 + w * ix as f64 / steps as f64;
                let y = -hgt / 2.0 + hgt * iy as f64 / steps as f64;
                let (ax, ay) = self.apply(x, y);
                let (bx, by) = other.apply(x, y);
                total += ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                n += 1;
            }
        }
        total / f64::from(n)
    }

    fn to_matrix(self) -> [[f64; 3]; 3] {
        let h = &self.h;
        [[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]]
    }

    fn from_matrix(m: [[f64; 3]; 3]) -> Motion {
        let s = m[2][2];
        let s = if s.abs() < 1e-12 { 1e-12 } else { s };
        Motion {
            h: [
                m[0][0] / s,
                m[0][1] / s,
                m[0][2] / s,
                m[1][0] / s,
                m[1][1] / s,
                m[1][2] / s,
                m[2][0] / s,
                m[2][1] / s,
            ],
        }
    }
}

/// One row of a [`Motion`] (see [`Motion::row`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowMap {
    h: [f64; 8],
    h1y: f64,
    h4y: f64,
    h7y: f64,
    /// `h6` or `h7` is non-zero. Without either, `w` is exactly 1.0 for
    /// finite coordinates and `v / 1.0 == v`, so the divide is skipped.
    projective: bool,
}

impl RowMap {
    /// The motion at `(x, y)`, as [`Motion::apply`] computes it: the same
    /// products, summed in the same order.
    #[must_use]
    #[inline]
    pub(crate) fn at(&self, x: f64) -> (f64, f64) {
        let h = &self.h;
        let u = h[0] * x + self.h1y + h[2];
        let v = h[3] * x + self.h4y + h[5];
        if !self.projective {
            return (u, v);
        }
        let w = h[6] * x + self.h7y + 1.0;
        let w = if w.abs() < 1e-12 { 1e-12 } else { w };
        (u / w, v / w)
    }
}

impl Default for Motion {
    fn default() -> Self {
        Motion::identity()
    }
}

impl fmt::Display for Motion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = &self.h;
        write!(
            f,
            "[{:.4} {:.4} {:.3}; {:.4} {:.4} {:.3}; {:.6} {:.6} 1]",
            h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
        )
    }
}

/// Solves the `n×n` linear system `A·x = b` in place by Gaussian
/// elimination with partial pivoting. Returns `None` for singular
/// systems.
#[must_use]
pub fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for (row, cols) in a.iter().enumerate() {
        debug_assert_eq!(cols.len(), n, "row {row} has wrong width");
    }
    #[allow(clippy::needless_range_loop)] // gaussian elimination indexes rows and columns
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(core::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_behaviour() {
        let id = Motion::identity();
        assert!(id.is_identity());
        assert_eq!(id.apply(3.0, -7.0), (3.0, -7.0));
        assert_eq!(id.model(), MotionModel::Translational);
        assert_eq!(Motion::default(), id);
    }

    #[test]
    fn row_map_matches_apply_bit_for_bit() {
        let mut rng = vip_video::rng::XorShift64::new(0x2403_1699);
        let mut motions = vec![
            Motion::identity(),
            Motion::translation(-3.25, 7.5),
            Motion::similarity(1.07, -0.2, 4.5, -2.0),
            // w is exactly 0 at x = -16: the 1e-12 clamp applies.
            Motion {
                h: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0625, 0.0],
            },
            Motion {
                h: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -0.0, 0.0],
            },
        ];
        for _ in 0..40 {
            let mut h = [0.0; 8];
            for (i, hi) in h.iter_mut().enumerate() {
                *hi = match i {
                    0 | 4 => rng.uniform(0.8, 1.25),
                    2 | 5 => rng.uniform(-20.0, 20.0),
                    6 | 7 => rng.uniform(-1e-3, 1e-3),
                    _ => rng.uniform(-0.3, 0.3),
                };
            }
            motions.push(Motion { h });
            motions.push(Motion::affine([h[2], h[0], h[1], h[5], h[3], h[4]]));
            motions.push(Motion::translation(h[2], h[5]));
        }
        for m in &motions {
            for iy in -40..=40 {
                let y = f64::from(iy) * 1.5 - 0.5;
                let row = m.row(y);
                for ix in -60..=60 {
                    let x = f64::from(ix) * 0.5;
                    let (a, b) = row.at(x);
                    let (c, d) = m.apply(x, y);
                    assert_eq!(
                        (a.to_bits(), b.to_bits()),
                        (c.to_bits(), d.to_bits()),
                        "{m} at ({x}, {y})"
                    );
                }
            }
        }
    }

    #[test]
    fn translation_apply_and_model() {
        let t = Motion::translation(5.0, -2.0);
        assert_eq!(t.apply(0.0, 0.0), (5.0, -2.0));
        assert_eq!(t.model(), MotionModel::Translational);
        assert_eq!(t.translation_part(), (5.0, -2.0));
        assert!(!t.is_identity());
    }

    #[test]
    fn affine_model_detection() {
        let a = Motion::affine([1.0, 1.1, 0.0, 2.0, 0.0, 1.0]);
        assert_eq!(a.model(), MotionModel::Affine);
        let p = Motion {
            h: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1e-4, 0.0],
        };
        assert_eq!(p.model(), MotionModel::Perspective);
        assert_eq!(MotionModel::Perspective.parameter_count(), 8);
    }

    #[test]
    fn similarity_matches_manual() {
        let m = Motion::similarity(2.0, std::f64::consts::FRAC_PI_2, 1.0, 2.0);
        let (x, y) = m.apply(1.0, 0.0);
        assert!((x - 1.0).abs() < 1e-12);
        assert!((y - 4.0).abs() < 1e-12);
    }

    #[test]
    fn compose_order() {
        let t = Motion::translation(1.0, 0.0);
        let s = Motion::similarity(2.0, 0.0, 0.0, 0.0);
        // s ∘ t: translate first, then scale.
        let st = s.compose(&t);
        assert_eq!(st.apply(0.0, 0.0), (2.0, 0.0));
        // t ∘ s: scale first, then translate.
        let ts = t.compose(&s);
        assert_eq!(ts.apply(0.0, 0.0), (1.0, 0.0));
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Motion::affine([3.0, 1.2, 0.1, -2.0, -0.05, 0.9]);
        let inv = m.inverse().unwrap();
        for (x, y) in [(0.0, 0.0), (10.0, -5.0), (100.0, 30.0)] {
            let (fx, fy) = m.apply(x, y);
            let (bx, by) = inv.apply(fx, fy);
            assert!((bx - x).abs() < 1e-9, "{bx} vs {x}");
            assert!((by - y).abs() < 1e-9);
        }
    }

    #[test]
    fn perspective_inverse_roundtrip() {
        let m = Motion {
            h: [1.02, 0.01, 2.0, -0.01, 0.99, -1.0, 1e-5, -2e-5],
        };
        let inv = m.inverse().unwrap();
        let (fx, fy) = m.apply(30.0, -40.0);
        let (bx, by) = inv.apply(fx, fy);
        assert!((bx - 30.0).abs() < 1e-7);
        assert!((by + 40.0).abs() < 1e-7);
    }

    #[test]
    fn singular_inverse_is_none() {
        let m = Motion {
            h: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        assert!(m.inverse().is_none());
    }

    #[test]
    fn pyramid_scaling_roundtrip() {
        let m = Motion::affine([4.0, 1.1, 0.2, -3.0, -0.1, 0.95]);
        let down = m.scaled_down(2.0);
        assert!((down.h[2] - 2.0).abs() < 1e-12, "translation halves");
        assert!((down.h[0] - 1.1).abs() < 1e-12, "linear part preserved");
        let up = down.scaled_up(2.0);
        for (a, b) in up.h.iter().zip(&m.h) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn scaling_consistency_with_apply() {
        // Applying the scaled-down motion to scaled-down coordinates
        // equals scaling down the full-resolution result.
        let m = Motion::affine([6.0, 1.05, -0.02, 2.0, 0.03, 0.97]);
        let d = m.scaled_down(2.0);
        let (fx, fy) = m.apply(40.0, 20.0);
        let (dx, dy) = d.apply(20.0, 10.0);
        assert!((fx / 2.0 - dx).abs() < 1e-9);
        assert!((fy / 2.0 - dy).abs() < 1e-9);
    }

    #[test]
    fn displacement_error_zero_for_equal() {
        let m = Motion::translation(3.0, 4.0);
        assert!(m.displacement_error(&m, 100.0, 100.0) < 1e-12);
        let n = Motion::translation(4.0, 4.0);
        assert!((m.displacement_error(&n, 100.0, 100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_linear_2x2() {
        let mut a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let mut b = vec![5.0, 10.0];
        let x = solve_linear(&mut a, &mut b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_needs_pivoting() {
        let mut a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let mut b = vec![2.0, 3.0];
        let x = solve_linear(&mut a, &mut b).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_linear_singular() {
        let mut a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut b = vec![1.0, 2.0];
        assert!(solve_linear(&mut a, &mut b).is_none());
    }

    #[test]
    fn solve_linear_6x6_identityish() {
        let n = 6;
        let mut a: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 2.0 } else { 0.1 }).collect())
            .collect();
        let expect: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let mut b: Vec<f64> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            2.0 * expect[j]
                        } else {
                            0.1 * expect[j]
                        }
                    })
                    .sum()
            })
            .collect();
        let x = solve_linear(&mut a, &mut b).unwrap();
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((xi - ei).abs() < 1e-9);
        }
    }

    #[test]
    fn display() {
        let s = Motion::identity().to_string();
        assert!(s.starts_with('['));
        assert_eq!(MotionModel::Affine.to_string(), "affine");
    }
}
