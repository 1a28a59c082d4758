//! Mosaicing: accumulating motion-compensated frames into a panorama.
//!
//! §4.3: *"This global motion estimation software is used for Mosaicing
//! purposes … as a result this software creates a Mosaic with the global
//! motion of the scene."* Each added frame is aligned with the absolute
//! (composed) motion and blended into the canvas; the frame-sized blend
//! pass is an AddressLib inter call dispatched through the backend.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::pixel::Pixel;
//! use vip_gme::backend::SoftwareBackend;
//! use vip_gme::model::Motion;
//! use vip_gme::mosaic::Mosaic;
//!
//! let mut mosaic = Mosaic::new(Dims::new(64, 48), Dims::new(32, 24));
//! let mut backend = SoftwareBackend::new();
//! let frame = Frame::filled(Dims::new(32, 24), Pixel::from_luma(90));
//! mosaic.add_frame(&frame, &Motion::identity(), &mut backend)?;
//! assert!(mosaic.coverage() > 0.0);
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use vip_core::error::{CoreError, CoreResult};
use vip_core::frame::Frame;
use vip_core::geometry::{Dims, Point};
use vip_core::ops::arith::Blend;
use vip_core::pixel::Pixel;

use crate::backend::GmeBackend;
use crate::model::Motion;
use crate::warp::{centre_of, sample_bilinear, warped_pixel};

/// A mosaic canvas accumulating aligned frames.
#[derive(Debug, Clone)]
pub struct Mosaic {
    canvas: Frame,
    /// Per-pixel accumulation count (0 = never written).
    weights: Vec<u32>,
    frame_dims: Dims,
    frames_added: usize,
}

impl Mosaic {
    /// Creates an empty mosaic canvas of `canvas_dims` for frames of
    /// `frame_dims`. The canvas centre corresponds to the centre of the
    /// first (reference) frame.
    ///
    /// # Panics
    ///
    /// Panics when either dimension set is empty.
    #[must_use]
    pub fn new(canvas_dims: Dims, frame_dims: Dims) -> Self {
        assert!(!canvas_dims.is_empty() && !frame_dims.is_empty());
        Mosaic {
            canvas: Frame::new(canvas_dims),
            weights: vec![0; canvas_dims.pixel_count()],
            frame_dims,
            frames_added: 0,
        }
    }

    /// A canvas sized to hold the whole excursion of a camera whose
    /// absolute translation stays within `(max_dx, max_dy)`.
    #[must_use]
    pub fn sized_for(frame_dims: Dims, max_dx: f64, max_dy: f64) -> Self {
        let canvas = Dims::new(
            frame_dims.width + 2 * (max_dx.abs().ceil() as usize + 8),
            frame_dims.height + 2 * (max_dy.abs().ceil() as usize + 8),
        );
        Mosaic::new(canvas, frame_dims)
    }

    /// The accumulated canvas.
    #[must_use]
    pub fn canvas(&self) -> &Frame {
        &self.canvas
    }

    /// Frames blended so far.
    #[must_use]
    pub const fn frames_added(&self) -> usize {
        self.frames_added
    }

    /// Fraction of canvas pixels written at least once.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let written = self.weights.iter().filter(|&&w| w > 0).count();
        written as f64 / self.weights.len() as f64
    }

    /// Blends `frame` into the canvas. `absolute` maps *canvas/frame-0*
    /// centred coordinates to the coordinates of `frame`.
    ///
    /// The blend of the overlapping, frame-sized patch is executed as an
    /// AddressLib inter call through `backend`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimsMismatch`] when `frame` does not match
    /// the mosaic's frame size, plus backend call errors.
    pub fn add_frame(
        &mut self,
        frame: &Frame,
        absolute: &Motion,
        backend: &mut dyn GmeBackend,
    ) -> CoreResult<()> {
        if frame.dims() != self.frame_dims {
            return Err(CoreError::DimsMismatch {
                left: frame.dims(),
                right: self.frame_dims,
            });
        }
        let (ccx, ccy) = centre_of(self.canvas.dims());
        let (_fcx, _fcy) = centre_of(frame.dims());

        // Bounding box of the frame's footprint in canvas coordinates.
        let inv = absolute.inverse().ok_or(CoreError::InvalidParameter {
            name: "absolute",
            reason: "absolute motion must be invertible",
        })?;
        let (fw, fh) = (frame.width() as f64, frame.height() as f64);
        let corners = [
            (-fw / 2.0, -fh / 2.0),
            (fw / 2.0, -fh / 2.0),
            (-fw / 2.0, fh / 2.0),
            (fw / 2.0, fh / 2.0),
        ];
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for (x, y) in corners {
            let (cxp, cyp) = inv.apply(x, y);
            min_x = min_x.min(cxp + ccx);
            max_x = max_x.max(cxp + ccx);
            min_y = min_y.min(cyp + ccy);
            max_y = max_y.max(cyp + ccy);
        }
        let x0 = (min_x.floor().max(0.0)) as usize;
        let y0 = (min_y.floor().max(0.0)) as usize;
        let x1 = (max_x.ceil().min(self.canvas.width() as f64 - 1.0)) as usize;
        let y1 = (max_y.ceil().min(self.canvas.height() as f64 - 1.0)) as usize;
        if x0 > x1 || y0 > y1 {
            self.frames_added += 1;
            return Ok(()); // footprint entirely outside the canvas
        }

        // Render the incoming content and the existing canvas content
        // over the footprint as frame-dims patches, blend via an
        // AddressLib inter call, and write back.
        let patch_dims = self.frame_dims;
        let scale_x = (x1 - x0).max(1) as f64 / patch_dims.width as f64;
        let scale_y = (y1 - y0).max(1) as f64 / patch_dims.height as f64;
        let canvas_pos = |p: Point| -> (f64, f64) {
            (
                x0 as f64 + p.x as f64 * scale_x,
                y0 as f64 + p.y as f64 * scale_y,
            )
        };

        let incoming = Frame::from_fn(patch_dims, |p| {
            let (cxp, cyp) = canvas_pos(p);
            let (fx, fy) = absolute.apply(cxp - ccx, cyp - ccy);
            let (fcx2, fcy2) = centre_of(frame.dims());
            warped_pixel(sample_bilinear(frame, fx + fcx2, fy + fcy2))
        });
        let existing = Frame::from_fn(patch_dims, |p| {
            let (cxp, cyp) = canvas_pos(p);
            let q = Point::new(cxp.round() as i32, cyp.round() as i32);
            let idx = self.canvas.dims().index_of(q);
            let mut px = self.canvas.get(q);
            px.alpha = u16::from(self.weights[idx] > 0);
            px
        });

        // AddressLib inter call: blend incoming over existing.
        let blended = backend.inter(&incoming, &existing, &Blend::average())?;

        // Write back: new content where the canvas was empty, blended
        // content where both exist.
        for (p, bpx) in blended.enumerate() {
            let inc = incoming.get(p);
            if inc.alpha == 0 {
                continue;
            }
            let (cxp, cyp) = canvas_pos(p);
            let q = Point::new(cxp.round() as i32, cyp.round() as i32);
            if !self.canvas.dims().contains(q) {
                continue;
            }
            let idx = self.canvas.dims().index_of(q);
            let exists = self.weights[idx] > 0;
            let value = if exists { bpx.y } else { inc.y };
            self.canvas.set(q, Pixel::from_luma(value));
            self.weights[idx] += 1;
        }
        self.frames_added += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{GmeBackend, SoftwareBackend};

    fn textured(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 11 + p.y * 23) % 256) as u8)
        })
    }

    #[test]
    fn first_frame_lands_centred() {
        let mut m = Mosaic::new(Dims::new(64, 48), Dims::new(32, 24));
        let mut b = SoftwareBackend::new();
        let f = textured(Dims::new(32, 24));
        m.add_frame(&f, &Motion::identity(), &mut b).unwrap();
        assert_eq!(m.frames_added(), 1);
        // Centre pixel of the canvas carries the frame's centre value.
        let centre_canvas = m.canvas().get(Point::new(32, 24));
        let centre_frame = f.get(Point::new(16, 12));
        assert_eq!(centre_canvas.y, centre_frame.y);
        // Coverage ≈ frame area / canvas area.
        let expected = (32.0 * 24.0) / (64.0 * 48.0);
        assert!((m.coverage() - expected).abs() < 0.06, "{}", m.coverage());
    }

    #[test]
    fn panning_extends_coverage() {
        let mut m = Mosaic::new(Dims::new(96, 48), Dims::new(32, 24));
        let mut b = SoftwareBackend::new();
        let f = textured(Dims::new(32, 24));
        m.add_frame(&f, &Motion::identity(), &mut b).unwrap();
        let c1 = m.coverage();
        // Camera panned right by 20: canvas point maps 20 further left in
        // the new frame.
        m.add_frame(&f, &Motion::translation(-20.0, 0.0), &mut b)
            .unwrap();
        let c2 = m.coverage();
        assert!(c2 > c1 * 1.3, "coverage {c1} → {c2}");
        assert_eq!(m.frames_added(), 2);
    }

    #[test]
    fn blend_counts_one_inter_call_per_frame() {
        let mut m = Mosaic::new(Dims::new(64, 48), Dims::new(32, 24));
        let mut b = SoftwareBackend::new();
        let f = textured(Dims::new(32, 24));
        for i in 0..3 {
            m.add_frame(&f, &Motion::translation(-(i as f64) * 4.0, 0.0), &mut b)
                .unwrap();
        }
        assert_eq!(b.tally().inter, 3);
    }

    #[test]
    fn overlapping_content_blends() {
        let mut m = Mosaic::new(Dims::new(64, 48), Dims::new(32, 24));
        let mut b = SoftwareBackend::new();
        let bright = Frame::filled(Dims::new(32, 24), Pixel::from_luma(200));
        let dark = Frame::filled(Dims::new(32, 24), Pixel::from_luma(100));
        m.add_frame(&bright, &Motion::identity(), &mut b).unwrap();
        m.add_frame(&dark, &Motion::identity(), &mut b).unwrap();
        let centre = m.canvas().get(Point::new(32, 24)).y;
        assert!(centre > 120 && centre < 180, "blended value {centre}");
    }

    #[test]
    fn wrong_frame_size_rejected() {
        let mut m = Mosaic::new(Dims::new(64, 48), Dims::new(32, 24));
        let mut b = SoftwareBackend::new();
        let f = textured(Dims::new(16, 16));
        assert!(matches!(
            m.add_frame(&f, &Motion::identity(), &mut b),
            Err(CoreError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn footprint_outside_canvas_is_noop() {
        let mut m = Mosaic::new(Dims::new(64, 48), Dims::new(32, 24));
        let mut b = SoftwareBackend::new();
        let f = textured(Dims::new(32, 24));
        m.add_frame(&f, &Motion::translation(-500.0, 0.0), &mut b)
            .unwrap();
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.frames_added(), 1);
    }

    #[test]
    fn sized_for_fits_excursion() {
        let m = Mosaic::sized_for(Dims::new(32, 24), 50.0, 10.0);
        assert!(m.canvas().width() >= 32 + 100);
        assert!(m.canvas().height() >= 24 + 20);
    }

    #[test]
    fn mosaic_reconstructs_scene_strip() {
        // Pan a window over a wide scene; the mosaic should recover a
        // wider strip faithful to the scene.
        let scene = textured(Dims::new(96, 24));
        let frame_at = |off: usize| {
            Frame::from_fn(Dims::new(32, 24), |p| {
                scene.get(Point::new(p.x + off as i32, p.y))
            })
        };
        let mut m = Mosaic::new(Dims::new(120, 32), Dims::new(32, 24));
        let mut b = SoftwareBackend::new();
        for step in 0..5 {
            let off = step * 12;
            // Camera at +off: canvas(frame-0) coords map to frame coords
            // by subtracting the pan.
            m.add_frame(
                &frame_at(off),
                &Motion::translation(-(off as f64), 0.0),
                &mut b,
            )
            .unwrap();
        }
        // Coverage spans well beyond one frame: 5 pans × 12 px ≈ 80 px of
        // the 120-px canvas width.
        assert!(m.coverage() > 0.45, "coverage {}", m.coverage());
        // Single frame alone would cover 32×24 / (120×32) ≈ 0.2.
        assert!(m.frames_added() == 5);
    }
}
