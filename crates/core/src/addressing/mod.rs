//! The four pixel-addressing schemes of the AddressLib (§2.1, fig. 1).
//!
//! * [`inter`] — per-pixel combination of two frames (difference pictures,
//!   SAD).
//! * [`intra`] — per-pixel neighbourhood operations within one frame
//!   (FIR-like filters, gradients, morphology).
//! * [`segment`] — seeded expansion over arbitrarily shaped segments in
//!   order of geodesic distance.
//! * [`indexed`] — indexed-table accesses running in parallel to another
//!   scheme (segment-indexed addressing).
//! * [`labeling`] — whole-frame segmentation by repeated segment
//!   expansion (complete connected-component labelling).
//!
//! Each executor returns both the produced data and a [`CallReport`]
//! carrying the [`CallDescriptor`] and empirical counters, so callers can
//! feed dispatch statistics (Table 3) and access accounting (Table 2)
//! without re-deriving anything.

pub mod indexed;
pub mod inter;
pub mod intra;
pub mod labeling;
pub mod segment;

use core::fmt;

use crate::accounting::{AccessCounter, AccessModel, CallDescriptor};
use crate::geometry::Dims;

/// Execution report of one AddressLib call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallReport {
    /// Static call description (mode, shape, channels).
    pub descriptor: CallDescriptor,
    /// Frame dimensions the call ran over.
    pub dims: Dims,
    /// Pixels actually produced (equals the frame size for inter/intra;
    /// the segment size for segment calls).
    pub pixels_processed: u64,
    /// Kernel invocations (equals `pixels_processed` for map-style calls).
    pub op_applies: u64,
    /// Empirical software access counter ticked by the executor.
    pub counter: AccessCounter,
}

impl CallReport {
    /// Analytic Table 2 access model for this call over its full frame.
    #[must_use]
    pub fn access_model(&self) -> AccessModel {
        AccessModel::for_call(&self.descriptor, self.dims)
    }
}

impl fmt::Display for CallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} over {}: {} px, {}",
            self.descriptor, self.dims, self.pixels_processed, self.counter
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::Connectivity;
    use crate::pixel::ChannelSet;

    #[test]
    fn report_exposes_model() {
        let report = CallReport {
            descriptor: CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y),
            dims: Dims::new(352, 288),
            pixels_processed: 101_376,
            op_applies: 101_376,
            counter: AccessCounter::new(),
        };
        assert_eq!(report.access_model().software_accesses, 405_504);
        assert!(report.to_string().contains("CON_8"));
    }
}
