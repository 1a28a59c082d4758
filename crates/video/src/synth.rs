//! Procedural scene textures: the "world" images our synthetic test
//! sequences are filmed from.
//!
//! The paper evaluates on four MPEG-1 CIF clips (Singapore, Dome, Pisa,
//! Movie) that we do not have; each is replaced by a procedurally
//! generated scene with *known* global motion (see
//! [`crate::sequences`]). A scene is an infinite, deterministic texture
//! sampled at real-valued world coordinates, so warped camera views can
//! be rendered at sub-pixel accuracy.
//!
//! # Examples
//!
//! ```
//! use vip_video::synth::{Scene, SceneKind};
//!
//! let scene = Scene::new(SceneKind::Skyline, 7);
//! let (y, _, _) = scene.sample(10.5, 20.25);
//! assert!(y <= 255.0);
//! ```

/// Deterministic 2-D hash → [0, 1) (value-noise lattice points).
fn lattice(seed: u64, xi: i64, yi: i64) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((xi as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add((yi as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Smooth value noise in [0, 1) at the given scale.
fn value_noise(seed: u64, x: f64, y: f64, scale: f64) -> f64 {
    let sx = x / scale;
    let sy = y / scale;
    let x0 = sx.floor();
    let y0 = sy.floor();
    let tx = smoothstep(sx - x0);
    let ty = smoothstep(sy - y0);
    let (xi, yi) = (x0 as i64, y0 as i64);
    let v00 = lattice(seed, xi, yi);
    let v10 = lattice(seed, xi + 1, yi);
    let v01 = lattice(seed, xi, yi + 1);
    let v11 = lattice(seed, xi + 1, yi + 1);
    let a = v00 + (v10 - v00) * tx;
    let b = v01 + (v11 - v01) * tx;
    a + (b - a) * ty
}

/// Fractal (multi-octave) value noise in [0, 1).
fn fractal_noise(seed: u64, x: f64, y: f64, base_scale: f64, octaves: u32) -> f64 {
    let mut total = 0.0;
    let mut amplitude = 1.0;
    let mut scale = base_scale;
    let mut norm = 0.0;
    for o in 0..octaves {
        total += amplitude * value_noise(seed.wrapping_add(o as u64 * 7919), x, y, scale);
        norm += amplitude;
        amplitude *= 0.5;
        scale *= 0.5;
    }
    total / norm
}

/// The scene family a synthetic sequence is filmed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// City-skyline-like: vertical structures over a gradient sky
    /// (the "Singapore" stand-in).
    Skyline,
    /// Radial dome structure with ribs (the "Dome" stand-in).
    Dome,
    /// Leaning-tower plaza: strong diagonal edges and arcades
    /// (the "Pisa" stand-in).
    Plaza,
    /// High-contrast film-like texture with large objects
    /// (the "Movie" stand-in).
    Film,
}

/// A deterministic, infinite scene texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scene {
    kind: SceneKind,
    seed: u64,
}

impl Scene {
    /// Creates a scene of the given kind and random seed.
    #[must_use]
    pub const fn new(kind: SceneKind, seed: u64) -> Self {
        Scene { kind, seed }
    }

    /// The scene kind.
    #[must_use]
    pub const fn kind(&self) -> SceneKind {
        self.kind
    }

    /// Samples the scene at world coordinates `(x, y)`, returning
    /// `(y, u, v)` in [0, 255].
    #[must_use]
    pub fn sample(&self, x: f64, y: f64) -> (f64, f64, f64) {
        match self.kind {
            SceneKind::Skyline => self.skyline(x, y),
            SceneKind::Dome => self.dome(x, y),
            SceneKind::Plaza => self.plaza(x, y),
            SceneKind::Film => self.film(x, y),
        }
    }

    fn skyline(&self, x: f64, y: f64) -> (f64, f64, f64) {
        // Sky gradient descending into a band of "buildings": tall
        // rectangles whose heights come from hashed columns.
        let sky = (140.0 - y * 0.15).clamp(40.0, 200.0);
        let col = (x / 24.0).floor() as i64;
        let height = 120.0 + 140.0 * lattice(self.seed, col, 0);
        let building = y > height;
        let texture = fractal_noise(self.seed ^ 0xA5, x, y, 16.0, 3);
        if building {
            let facade = 40.0 + 80.0 * texture;
            // Window grid.
            let wx = (x.rem_euclid(24.0) / 6.0).floor();
            let wy = (y.rem_euclid(16.0) / 5.0).floor();
            let lit = lattice(self.seed ^ 0x77, col * 97 + wx as i64, wy as i64) > 0.6;
            let yv = if lit { facade + 90.0 } else { facade };
            (yv.clamp(0.0, 255.0), 118.0, 132.0)
        } else {
            (sky + 20.0 * texture, 140.0, 120.0)
        }
    }

    fn dome(&self, x: f64, y: f64) -> (f64, f64, f64) {
        let cx = 400.0;
        let cy = 300.0;
        let dx = x - cx;
        let dy = y - cy;
        let r = (dx * dx + dy * dy).sqrt();
        let angle = dy.atan2(dx);
        // Radial ribs and concentric rings.
        let ribs = ((angle * 12.0).sin() * 0.5 + 0.5) * 60.0;
        let rings = ((r / 22.0).sin() * 0.5 + 0.5) * 50.0;
        let noise = fractal_noise(self.seed, x, y, 30.0, 3) * 60.0;
        let detail = fractal_noise(self.seed ^ 0xD, x, y, 7.0, 2) * 55.0;
        let base = 150.0 - r * 0.12;
        (
            (base + ribs * 0.6 + rings * 0.6 + noise * 0.4 + detail).clamp(0.0, 255.0),
            124.0,
            136.0,
        )
    }

    fn plaza(&self, x: f64, y: f64) -> (f64, f64, f64) {
        // Diagonal arcade stripes + a leaning high-contrast "tower".
        let diag = ((x * 0.7 + y * 0.7) / 18.0).sin() * 0.5 + 0.5;
        let tower_x = 300.0 + y * 0.08; // the lean
        let in_tower = (x - tower_x).abs() < 40.0 && y < 400.0;
        let noise = fractal_noise(self.seed, x, y, 12.0, 4);
        if in_tower {
            let bands = ((y / 14.0).sin() * 0.5 + 0.5) * 70.0;
            (
                (170.0 + bands * 0.6 + noise * 30.0).clamp(0.0, 255.0),
                120.0,
                134.0,
            )
        } else {
            (
                (60.0 + diag * 90.0 + noise * 50.0).clamp(0.0, 255.0),
                130.0,
                126.0,
            )
        }
    }

    fn film(&self, x: f64, y: f64) -> (f64, f64, f64) {
        // Large soft blobs over mid-frequency texture: film-like content
        // with big moving masses.
        let blob1 = (-((x - 250.0).powi(2) + (y - 180.0).powi(2)) / 18_000.0).exp();
        let blob2 = (-((x - 520.0).powi(2) + (y - 340.0).powi(2)) / 30_000.0).exp();
        let noise = fractal_noise(self.seed, x, y, 40.0, 4);
        let detail = fractal_noise(self.seed ^ 0x3, x, y, 5.5, 2);
        let yv = 30.0 + 130.0 * (0.55 * blob1 + 0.45 * blob2) + 45.0 * noise + 75.0 * detail;
        (
            yv.clamp(0.0, 255.0),
            120.0 + 16.0 * blob1,
            128.0 + 12.0 * blob2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [SceneKind; 4] = [
        SceneKind::Skyline,
        SceneKind::Dome,
        SceneKind::Plaza,
        SceneKind::Film,
    ];

    #[test]
    fn samples_in_range() {
        for kind in KINDS {
            let scene = Scene::new(kind, 42);
            for i in 0..200 {
                let x = i as f64 * 7.3 - 200.0;
                let y = i as f64 * 3.1 - 100.0;
                let (yv, u, v) = scene.sample(x, y);
                assert!((0.0..=255.0).contains(&yv), "{kind:?} y={yv}");
                assert!((0.0..=255.0).contains(&u));
                assert!((0.0..=255.0).contains(&v));
            }
        }
    }

    #[test]
    fn deterministic() {
        for kind in KINDS {
            let a = Scene::new(kind, 7).sample(123.4, 56.7);
            let b = Scene::new(kind, 7).sample(123.4, 56.7);
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn seed_changes_texture() {
        let a = Scene::new(SceneKind::Film, 1);
        let b = Scene::new(SceneKind::Film, 2);
        let differs = (0..50).any(|i| {
            let x = i as f64 * 13.7;
            a.sample(x, x * 0.7) != b.sample(x, x * 0.7)
        });
        assert!(differs);
    }

    #[test]
    fn scenes_have_texture_variance() {
        // GME needs gradients: each scene must vary spatially.
        for kind in KINDS {
            let scene = Scene::new(kind, 3);
            let mut values = Vec::new();
            for yi in 0..40 {
                for xi in 0..40 {
                    values.push(scene.sample(xi as f64 * 9.0, yi as f64 * 9.0).0);
                }
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var =
                values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
            assert!(var > 100.0, "{kind:?} variance {var} too flat for GME");
        }
    }

    #[test]
    fn noise_is_smooth() {
        // Neighbouring samples differ by much less than the full range.
        let scene = Scene::new(SceneKind::Film, 9);
        for i in 0..100 {
            let x = i as f64 * 3.0;
            let a = scene.sample(x, 50.0).0;
            let b = scene.sample(x + 0.5, 50.0).0;
            assert!((a - b).abs() < 60.0, "jump of {} at {x}", (a - b).abs());
        }
    }

    #[test]
    fn kind_accessor() {
        assert_eq!(Scene::new(SceneKind::Dome, 0).kind(), SceneKind::Dome);
    }
}
