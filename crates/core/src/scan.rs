//! Strips: the row bands in which frames move between host and engine.
//!
//! The paper transfers frames in *strips* of lines (§3.1). Every
//! AddressLib call and the coprocessor's control FSM sweep an image
//! row-major, so a strip is always a band of whole lines. This module
//! provides the strip decomposition used by the coprocessor simulator's
//! DMA model.
//!
//! # Examples
//!
//! ```
//! use vip_core::geometry::Dims;
//! use vip_core::scan::strips;
//!
//! let s = strips(Dims::new(8, 20), 16);
//! assert_eq!(s.len(), 2);
//! assert_eq!((s[1].start, s[1].len), (16, 4));
//! ```

use core::fmt;

use crate::geometry::Dims;

/// A strip: the transfer unit between host memory and the ZBT banks.
///
/// The paper fixes the strip size to sixteen lines: *"The selected strip size
/// is sixteen lines, as the maximum range of input data required to process
/// one pixel is nine lines"* (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Strip {
    /// Index of the strip within the frame (0-based).
    pub index: usize,
    /// First line covered.
    pub start: usize,
    /// Number of lines covered; the last strip may be shorter.
    pub len: usize,
}

impl Strip {
    /// Number of pixels in the strip for a frame of `dims`.
    #[must_use]
    pub const fn pixel_count(&self, dims: Dims) -> usize {
        self.len * dims.width
    }

    /// Number of bytes the strip occupies at 8 bytes/pixel.
    #[must_use]
    pub const fn bytes(&self, dims: Dims) -> usize {
        self.pixel_count(dims) * 8
    }
}

impl fmt::Display for Strip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "strip#{} [{}, {}) lines",
            self.index,
            self.start,
            self.start + self.len
        )
    }
}

/// Decomposes a frame into transfer strips of `strip_len` lines, matching
/// the DMA scheme of §3.1.
///
/// The final strip is truncated when the frame height is not a multiple of
/// `strip_len` (never the case for QCIF/CIF with the paper's 16).
///
/// # Panics
///
/// Panics if `strip_len` is zero.
///
/// # Examples
///
/// ```
/// use vip_core::geometry::ImageFormat;
/// use vip_core::scan::strips;
///
/// let s = strips(ImageFormat::Cif.dims(), 16);
/// assert_eq!(s.len(), 288 / 16);
/// assert!(s.iter().all(|st| st.len == 16));
/// ```
#[must_use]
pub fn strips(dims: Dims, strip_len: usize) -> Vec<Strip> {
    assert!(strip_len > 0, "strip length must be positive");
    (0..dims.height.div_ceil(strip_len))
        .map(|index| {
            let start = index * strip_len;
            Strip {
                index,
                start,
                len: strip_len.min(dims.height - start),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ImageFormat;

    #[test]
    fn strips_of_cif_are_eighteen_times_sixteen_lines() {
        // §3.1: "Sixteen is also divisor of the image size".
        let s = strips(ImageFormat::Cif.dims(), 16);
        assert_eq!(s.len(), 18);
        assert!(s.iter().all(|st| st.len == 16));
        assert_eq!(s[17].start, 272);
        // Strip bytes: 16 lines × 352 pixels × 8 B = 45056.
        assert_eq!(s[0].bytes(ImageFormat::Cif.dims()), 45_056);
    }

    #[test]
    fn strips_cover_frame_exactly() {
        for (w, h) in [(33, 17), (16, 16), (1, 1), (100, 50)] {
            let dims = Dims::new(w, h);
            let ss = strips(dims, 16);
            let covered: usize = ss.iter().map(|s| s.len).sum();
            assert_eq!(covered, h);
            // Pixel counts sum to the frame size.
            let px: usize = ss.iter().map(|s| s.pixel_count(dims)).sum();
            assert_eq!(px, dims.pixel_count());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_strip_len_panics() {
        let _ = strips(Dims::new(4, 4), 0);
    }

    #[test]
    fn display_names() {
        let st = Strip {
            index: 1,
            start: 16,
            len: 16,
        };
        assert_eq!(st.to_string(), "strip#1 [16, 32) lines");
    }
}
