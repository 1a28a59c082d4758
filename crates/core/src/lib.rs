//! # vip-core — the AddressLib
//!
//! Software implementation of the **AddressLib**, the structured pixel
//! addressing library of *"A Coprocessor for Accelerating Visual
//! Information Processing"* (Stechele et al., DATE 2005), together with
//! the pixel-operation kernels it executes and the memory-access
//! accounting model behind the paper's Table 2.
//!
//! The library is organised around the paper's observation that most
//! visual-information-processing algorithms access pixels in only four
//! ways (§2.1):
//!
//! 1. **Inter addressing** ([`addressing::inter`]) — each output pixel is
//!    computed from two input frames (difference pictures, SAD).
//! 2. **Intra addressing** ([`addressing::intra`]) — each output pixel is
//!    computed from a neighbourhood window within one frame (FIR filters,
//!    gradients, morphology).
//! 3. **Segment addressing** ([`addressing::segment`]) — arbitrarily
//!    shaped segments are expanded from seed pixels in order of geodesic
//!    distance, gated by a neighbourhood criterion.
//! 4. **Segment-indexed addressing** ([`addressing::indexed`]) — indexed
//!    table accesses carrying per-segment data, in parallel to another
//!    scheme.
//!
//! The `vip-engine` crate executes the same calls on a cycle-level
//! simulator of the AddressEngine FPGA coprocessor.
//!
//! ## Quick start
//!
//! ```
//! use vip_core::addressing::inter::run_inter;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::arith::AbsDiff;
//! use vip_core::pixel::Pixel;
//!
//! # fn main() -> Result<(), vip_core::error::CoreError> {
//! // Two frames of a surveillance camera…
//! let background = Frame::filled(Dims::new(16, 16), Pixel::from_luma(30));
//! let current = Frame::filled(Dims::new(16, 16), Pixel::from_luma(35));
//!
//! // …and one AddressLib inter call computing the difference picture.
//! let result = run_inter(&background, &current, &AbsDiff::luma())?;
//! assert!(result.output.pixels().iter().all(|p| p.y == 5));
//!
//! // Every call reports its Table-2 access model.
//! let model = result.report.access_model();
//! assert_eq!(model.software_accesses, 3 * 16 * 16);
//! assert_eq!(model.hardware_accesses, 2 * 16 * 16);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod addressing;
pub mod error;
pub mod frame;
pub mod geometry;
pub mod neighborhood;
pub mod ops;
pub mod pixel;
pub mod scan;

pub use accounting::{AccessModel, AddressingMode, CallDescriptor};
pub use error::{CoreError, CoreResult};
pub use frame::Frame;
pub use geometry::{Dims, ImageFormat, Point, Rect};
pub use neighborhood::{Connectivity, Window};
pub use pixel::{Channel, ChannelSet, Pixel};

/// Tests of the frame-border rule. Clamp is the only one: a sample
/// outside the frame reads the nearest edge pixel, as the IIM re-delivers
/// the edge lines (§3.1, fig. 4).
#[cfg(test)]
mod border {
    mod tests {
        use crate::{Connectivity, Dims, Frame, Pixel, Point, Window};

        #[test]
        fn clamp_replicates_edges() {
            // 4x1 luminance ramp 0,10,20,30
            let f = Frame::from_fn(Dims::new(4, 1), |p| Pixel::from_luma(p.x as u8 * 10));
            let at = |x, y| {
                Window::gather(&f, Point::new(x, y), Connectivity::Con0)
                    .centre_pixel()
                    .y
            };
            assert_eq!(at(-3, 0), 0);
            assert_eq!(at(9, 0), 30);
            assert_eq!(at(1, 5), 10);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile() {
        let _ = crate::Pixel::from_luma(1);
        let _ = crate::Dims::new(1, 1);
        let _ = crate::Connectivity::Con8;
    }
}
