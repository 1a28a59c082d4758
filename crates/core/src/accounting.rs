//! Memory-access accounting: the analytic model behind Table 2 of the
//! paper.
//!
//! §4.2 compares *"the number of memory access operations carried out by
//! the software solution and those made by the processor in the design"*.
//! This module reproduces both sides:
//!
//! **Software model.** The reference software stores frames as arrays and
//! walks them channel by channel. Per produced pixel it performs
//!
//! * one read per *new* pixel entering the sliding neighbourhood window of
//!   the primary input channel ([`Connectivity::new_pixels_per_step`]),
//! * one read for each *additional* input channel of the centre pixel
//!   (channels are stored and fetched sequentially — §4.2: *"in the
//!   software solution this is done sequentially"*),
//! * for inter addressing, the above once per input frame, and
//! * one write for the output pixel.
//!
//! **Hardware model.** The AddressEngine pairs ZBT banks so that a whole
//! 64-bit pixel — and, via the IIM, the whole neighbourhood update with
//! *all* channels — is available in a single memory cycle, and the OIM
//! buffers one write cycle per pixel. Per produced pixel: one read cycle +
//! one write cycle, independent of neighbourhood size or channel count.
//!
//! With these two models the four rows of Table 2 come out exactly:
//!
//! | call                  | sw/pixel | hw/pixel | sw total (CIF) | hw total |
//! |-----------------------|----------|----------|----------------|----------|
//! | Inter Y → Y           | 3        | 2        | 304 128        | 202 752  |
//! | Intra CON_0 Y → Y     | 2        | 2        | 202 752        | 202 752  |
//! | Intra CON_8 Y → Y     | 4        | 2        | 405 504        | 202 752  |
//! | Intra CON_8 YUV → YUV | 6        | 2        | 608 256        | 202 752  |
//!
//! # Examples
//!
//! ```
//! use vip_core::accounting::{AccessModel, CallDescriptor};
//! use vip_core::geometry::ImageFormat;
//! use vip_core::neighborhood::Connectivity;
//! use vip_core::pixel::ChannelSet;
//!
//! let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::YUV);
//! let m = AccessModel::for_call(&call, ImageFormat::Cif.dims());
//! assert_eq!(m.software_accesses, 608_256);
//! assert_eq!(m.hardware_accesses, 202_752);
//! ```

use core::fmt;

use crate::geometry::Dims;
use crate::neighborhood::Connectivity;
use crate::pixel::ChannelSet;

/// The addressing class of a call, as counted by Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressingMode {
    /// Two input frames, one output frame (§2.1 inter addressing).
    Inter,
    /// One input frame, neighbourhood window (§2.1 intra addressing).
    Intra,
    /// Seeded expansion over arbitrarily shaped segments.
    Segment,
    /// Indexed table access running in parallel to another mode.
    SegmentIndexed,
}

impl fmt::Display for AddressingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressingMode::Inter => "inter",
            AddressingMode::Intra => "intra",
            AddressingMode::Segment => "segment",
            AddressingMode::SegmentIndexed => "segment-indexed",
        };
        f.write_str(s)
    }
}

/// Static description of one AddressLib call: everything the accounting,
/// timing and dispatch layers need to know, independent of the kernel
/// closure itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallDescriptor {
    /// Addressing class.
    pub mode: AddressingMode,
    /// Neighbourhood shape (CON_0 for inter calls, which have no window).
    pub shape: Connectivity,
    /// Channels read from each input pixel.
    pub input_channels: ChannelSet,
    /// Channels written to each output pixel.
    pub output_channels: ChannelSet,
}

impl CallDescriptor {
    /// Describes an intra call.
    #[must_use]
    pub const fn intra(shape: Connectivity, input: ChannelSet, output: ChannelSet) -> Self {
        CallDescriptor {
            mode: AddressingMode::Intra,
            shape,
            input_channels: input,
            output_channels: output,
        }
    }

    /// Describes an inter call (no neighbourhood window).
    #[must_use]
    pub const fn inter(input: ChannelSet, output: ChannelSet) -> Self {
        CallDescriptor {
            mode: AddressingMode::Inter,
            shape: Connectivity::Con0,
            input_channels: input,
            output_channels: output,
        }
    }

    /// Describes a segment call with the given expansion connectivity.
    #[must_use]
    pub const fn segment(shape: Connectivity, input: ChannelSet, output: ChannelSet) -> Self {
        CallDescriptor {
            mode: AddressingMode::Segment,
            shape,
            input_channels: input,
            output_channels: output,
        }
    }

    /// Software memory accesses *per produced pixel* under the model
    /// described at module level.
    #[must_use]
    pub fn software_accesses_per_pixel(&self) -> u64 {
        let extra_channels = self.input_channels.len().saturating_sub(1) as u64;
        let frames = match self.mode {
            AddressingMode::Inter => 2,
            _ => 1,
        };
        let per_frame = self.shape.new_pixels_per_step() as u64 + extra_channels;
        frames * per_frame + 1 // +1 output write
    }

    /// Hardware memory cycles *per produced pixel*: one parallel read
    /// cycle plus one buffered write cycle, regardless of shape and
    /// channels.
    #[must_use]
    pub const fn hardware_accesses_per_pixel(&self) -> u64 {
        2
    }
}

impl fmt::Display for CallDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}→{}",
            self.mode, self.shape, self.input_channels, self.output_channels
        )
    }
}

/// Total access counts of one call over a whole frame, software vs.
/// hardware, plus the paper's two "saving" figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessModel {
    /// Pixels produced by the call.
    pub pixels: u64,
    /// Total software memory accesses.
    pub software_accesses: u64,
    /// Total hardware memory cycles.
    pub hardware_accesses: u64,
}

impl AccessModel {
    /// Evaluates the model for `call` over a frame of `dims`.
    #[must_use]
    pub fn for_call(call: &CallDescriptor, dims: Dims) -> Self {
        let pixels = dims.pixel_count() as u64;
        AccessModel {
            pixels,
            software_accesses: pixels * call.software_accesses_per_pixel(),
            hardware_accesses: pixels * call.hardware_accesses_per_pixel(),
        }
    }

    /// Saving as a fraction of the *software* accesses:
    /// `(sw − hw) / sw`. This is the convention behind the 33 % and 50 %
    /// rows of Table 2.
    #[must_use]
    pub fn saving_of_software(&self) -> f64 {
        if self.software_accesses == 0 {
            return 0.0;
        }
        (self.software_accesses as f64 - self.hardware_accesses as f64)
            / self.software_accesses as f64
    }

    /// Saving relative to the *hardware* accesses:
    /// `(sw − hw) / hw`. This is the convention behind the 200 % row of
    /// Table 2 (the paper mixes both conventions; we expose each).
    #[must_use]
    pub fn saving_of_hardware(&self) -> f64 {
        if self.hardware_accesses == 0 {
            return 0.0;
        }
        (self.software_accesses as f64 - self.hardware_accesses as f64)
            / self.hardware_accesses as f64
    }

    /// The saving figure as printed in Table 2: the paper uses
    /// saved/software for the first three rows and switches to
    /// saved/hardware once the ratio exceeds 1 (the 200 % row).
    #[must_use]
    pub fn paper_saving_percent(&self) -> f64 {
        let of_sw = self.saving_of_software();
        if self.software_accesses > 2 * self.hardware_accesses {
            self.saving_of_hardware() * 100.0
        } else {
            of_sw * 100.0
        }
    }
}

/// A live access counter that executors tick while running, for empirical
/// cross-checks of the analytic model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounter {
    reads: u64,
    writes: u64,
}

impl AccessCounter {
    /// Creates a zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        AccessCounter {
            reads: 0,
            writes: 0,
        }
    }

    /// Records `n` read accesses.
    pub fn read(&mut self, n: u64) {
        self.reads += n;
    }

    /// Records `n` write accesses.
    pub fn write(&mut self, n: u64) {
        self.writes += n;
    }

    /// Total reads so far.
    #[must_use]
    pub const fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes so far.
    #[must_use]
    pub const fn writes(&self) -> u64 {
        self.writes
    }

    /// Reads + writes.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl fmt::Display for AccessCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}r + {}w = {}", self.reads, self.writes, self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ImageFormat;

    const CIF: Dims = Dims::new(352, 288);

    #[test]
    fn table2_row1_inter_y() {
        let call = CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y);
        let m = AccessModel::for_call(&call, CIF);
        assert_eq!(m.software_accesses, 304_128);
        assert_eq!(m.hardware_accesses, 202_752);
        assert!((m.saving_of_software() - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.paper_saving_percent() - 33.333).abs() < 0.01);
    }

    #[test]
    fn table2_row2_intra_con0_y() {
        let call = CallDescriptor::intra(Connectivity::Con0, ChannelSet::Y, ChannelSet::Y);
        let m = AccessModel::for_call(&call, CIF);
        assert_eq!(m.software_accesses, 202_752);
        assert_eq!(m.hardware_accesses, 202_752);
        assert_eq!(m.paper_saving_percent(), 0.0);
    }

    #[test]
    fn table2_row3_intra_con8_y() {
        let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
        let m = AccessModel::for_call(&call, CIF);
        assert_eq!(m.software_accesses, 405_504);
        assert_eq!(m.hardware_accesses, 202_752);
        assert!((m.paper_saving_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn table2_row4_intra_con8_yuv() {
        let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::YUV);
        let m = AccessModel::for_call(&call, CIF);
        assert_eq!(m.software_accesses, 608_256);
        assert_eq!(m.hardware_accesses, 202_752);
        // Paper reports 200 % — the saved/hardware convention.
        assert!((m.paper_saving_percent() - 200.0).abs() < 1e-9);
        // The consistent saved/software figure would be 66.7 %.
        assert!((m.saving_of_software() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_pixel_counts() {
        assert_eq!(
            CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y).software_accesses_per_pixel(),
            3
        );
        assert_eq!(
            CallDescriptor::intra(Connectivity::Con0, ChannelSet::Y, ChannelSet::Y)
                .software_accesses_per_pixel(),
            2
        );
        assert_eq!(
            CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y)
                .software_accesses_per_pixel(),
            4
        );
        assert_eq!(
            CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::YUV)
                .software_accesses_per_pixel(),
            6
        );
        assert_eq!(
            CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y)
                .hardware_accesses_per_pixel(),
            2
        );
    }

    #[test]
    fn saving_grows_with_traffic() {
        // §4.2: "the benefit … increases with the amount of data traffic".
        let rows = [
            CallDescriptor::intra(Connectivity::Con0, ChannelSet::Y, ChannelSet::Y),
            CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y),
            CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y),
            CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::YUV),
        ];
        let savings: Vec<f64> = rows
            .iter()
            .map(|c| AccessModel::for_call(c, CIF).saving_of_software())
            .collect();
        for w in savings.windows(2) {
            assert!(
                w[0] <= w[1],
                "saving must be monotone in traffic: {savings:?}"
            );
        }
    }

    #[test]
    fn qcif_scales_proportionally() {
        let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
        let cif = AccessModel::for_call(&call, ImageFormat::Cif.dims());
        let qcif = AccessModel::for_call(&call, ImageFormat::Qcif.dims());
        assert_eq!(cif.software_accesses, 4 * qcif.software_accesses);
        assert_eq!(cif.hardware_accesses, 4 * qcif.hardware_accesses);
    }

    #[test]
    fn segment_mode_counts_like_intra() {
        let seg = CallDescriptor::segment(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
        assert_eq!(seg.software_accesses_per_pixel(), 4);
        assert_eq!(seg.mode, AddressingMode::Segment);
    }

    #[test]
    fn zero_area_model() {
        let call = CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y);
        let m = AccessModel::for_call(&call, Dims::new(0, 10));
        assert_eq!(m.software_accesses, 0);
        assert_eq!(m.saving_of_software(), 0.0);
        assert_eq!(m.saving_of_hardware(), 0.0);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = AccessCounter::new();
        c.read(3);
        c.write(2);
        c.read(1);
        assert_eq!((c.reads(), c.writes(), c.total()), (4, 2, 6));
        assert_eq!(c.to_string(), "4r + 2w = 6");
    }

    #[test]
    fn descriptor_display() {
        let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::Y);
        assert_eq!(call.to_string(), "intra CON_8 Y,U,V→Y");
        assert_eq!(
            AddressingMode::SegmentIndexed.to_string(),
            "segment-indexed"
        );
    }
}
