//! Reductions: whole-frame accumulators layered over the inter/intra
//! kernels — SAD, SSD, histogram and luminance statistics.
//!
//! §2.1 names SAD as an inter-addressing application; §3.5 lists the
//! histogram among stage-3 operations. In the hardware these run through
//! the same datapath with an accumulator register instead of an OIM write.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::reduce::sad;
//! use vip_core::pixel::Pixel;
//!
//! let a = Frame::filled(Dims::new(4, 4), Pixel::from_luma(10));
//! let b = Frame::filled(Dims::new(4, 4), Pixel::from_luma(14));
//! assert_eq!(sad(&a, &b)?, 16 * 4);
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::pixel::Channel;

fn check_dims(a: &Frame, b: &Frame) -> CoreResult<()> {
    if a.dims() != b.dims() {
        return Err(CoreError::DimsMismatch {
            left: a.dims(),
            right: b.dims(),
        });
    }
    Ok(())
}

/// Sum of absolute luminance differences between two equally sized frames.
///
/// # Errors
///
/// Returns [`CoreError::DimsMismatch`] when the frames differ in size.
pub fn sad(a: &Frame, b: &Frame) -> CoreResult<u64> {
    check_dims(a, b)?;
    Ok(a.pixels()
        .iter()
        .zip(b.pixels())
        .map(|(pa, pb)| u64::from(pa.y.abs_diff(pb.y)))
        .sum())
}

/// Sum of squared luminance differences between two equally sized frames.
///
/// # Errors
///
/// Returns [`CoreError::DimsMismatch`] when the frames differ in size.
pub fn ssd(a: &Frame, b: &Frame) -> CoreResult<u64> {
    check_dims(a, b)?;
    Ok(a.pixels()
        .iter()
        .zip(b.pixels())
        .map(|(pa, pb)| {
            let d = i64::from(pa.y) - i64::from(pb.y);
            (d * d) as u64
        })
        .sum())
}

/// A 256-bin histogram of one 8-bit video channel.
///
/// For the 16-bit side channels, values are clamped into the 0..=255 range
/// (label histograms beyond 255 belong to the indexed-table machinery of
/// segment-indexed addressing instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bins: Box<[u64; 256]>,
    channel: Channel,
}

impl Histogram {
    /// Computes the histogram of `channel` over `frame`.
    #[must_use]
    pub fn of(frame: &Frame, channel: Channel) -> Self {
        let mut bins = Box::new([0u64; 256]);
        for p in frame.pixels() {
            let v = p.channel(channel).min(255) as usize;
            bins[v] += 1;
        }
        Histogram { bins, channel }
    }

    /// The channel this histogram was computed over.
    #[must_use]
    pub const fn channel(&self) -> Channel {
        self.channel
    }

    /// Count in bin `value`.
    #[must_use]
    pub fn bin(&self, value: u8) -> u64 {
        self.bins[value as usize]
    }

    /// Total number of samples (the frame's pixel count).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The most populated bin value (smallest value wins ties), or `None`
    /// for an empty histogram.
    #[must_use]
    pub fn mode(&self) -> Option<u8> {
        let (idx, &count) = self
            .bins
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))?;
        if count == 0 {
            None
        } else {
            Some(idx as u8)
        }
    }

    /// Smallest value `v` such that at least `fraction` of the samples are
    /// ≤ `v`. `fraction` is clamped into `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, fraction: f64) -> u8 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = ((fraction.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (v, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return v as u8;
            }
        }
        255
    }

    /// Iterates over `(value, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u8, c))
    }
}

/// Summary statistics of the luminance channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LumaStats {
    /// Minimum luminance.
    pub min: u8,
    /// Maximum luminance.
    pub max: u8,
    /// Mean luminance.
    pub mean: f64,
    /// Population variance of the luminance.
    pub variance: f64,
}

impl LumaStats {
    /// Computes luminance statistics over a frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyFrame`] for zero-area frames.
    pub fn of(frame: &Frame) -> CoreResult<LumaStats> {
        if frame.pixel_count() == 0 {
            return Err(CoreError::EmptyFrame);
        }
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        for p in frame.pixels() {
            min = min.min(p.y);
            max = max.max(p.y);
            let v = f64::from(p.y);
            sum += v;
            sum_sq += v * v;
        }
        let n = frame.pixel_count() as f64;
        let mean = sum / n;
        Ok(LumaStats {
            min,
            max,
            mean,
            variance: (sum_sq / n - mean * mean).max(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Dims, Point};
    use crate::pixel::Pixel;

    fn f(vals: &[u8], w: usize) -> Frame {
        Frame::from_luma(Dims::new(w, vals.len() / w), vals).unwrap()
    }

    #[test]
    fn sad_and_ssd_basics() {
        let a = f(&[0, 10, 20, 30], 2);
        let b = f(&[5, 10, 25, 20], 2);
        assert_eq!(sad(&a, &b).unwrap(), 20); // 5 + 0 + 5 + 10
        assert_eq!(ssd(&a, &b).unwrap(), 150); // 25 + 0 + 25 + 100
        assert_eq!(sad(&a, &a).unwrap(), 0);
    }

    #[test]
    fn sad_dim_mismatch() {
        let a = Frame::new(Dims::new(2, 2));
        let b = Frame::new(Dims::new(3, 2));
        assert!(matches!(sad(&a, &b), Err(CoreError::DimsMismatch { .. })));
        assert!(ssd(&a, &b).is_err());
    }

    #[test]
    fn histogram_counts_and_total() {
        let frame = f(&[1, 1, 2, 255], 2);
        let h = Histogram::of(&frame, Channel::Y);
        assert_eq!(h.bin(1), 2);
        assert_eq!(h.bin(2), 1);
        assert_eq!(h.bin(255), 1);
        assert_eq!(h.bin(0), 0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.channel(), Channel::Y);
        assert_eq!(h.iter().count(), 3);
    }

    #[test]
    fn histogram_clamps_side_channels() {
        let mut frame = Frame::new(Dims::new(1, 1));
        frame.get_mut(Point::ORIGIN).alpha = 1000;
        let h = Histogram::of(&frame, Channel::Alpha);
        assert_eq!(h.bin(255), 1);
    }

    #[test]
    fn histogram_mode_and_quantile() {
        let frame = f(&[5, 5, 5, 9, 9, 200], 3);
        let h = Histogram::of(&frame, Channel::Y);
        assert_eq!(h.mode(), Some(5));
        assert_eq!(h.quantile(0.0), 5);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.8), 9);
        assert_eq!(h.quantile(1.0), 200);
        let empty = Histogram::of(&Frame::new(Dims::new(0, 0)), Channel::Y);
        assert_eq!(empty.mode(), None);
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn histogram_mode_tie_prefers_smaller() {
        let frame = f(&[3, 3, 7, 7], 2);
        let h = Histogram::of(&frame, Channel::Y);
        assert_eq!(h.mode(), Some(3));
    }

    #[test]
    fn luma_stats() {
        let frame = f(&[0, 10, 20, 30], 2);
        let s = LumaStats::of(&frame).unwrap();
        assert_eq!((s.min, s.max), (0, 30));
        assert!((s.mean - 15.0).abs() < 1e-9);
        assert!((s.variance - 125.0).abs() < 1e-9);
        assert!(LumaStats::of(&Frame::new(Dims::new(0, 5))).is_err());
    }

    #[test]
    fn stats_of_flat_frame_zero_variance() {
        let frame = Frame::filled(Dims::new(3, 3), Pixel::from_luma(42));
        let s = LumaStats::of(&frame).unwrap();
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.mean, 42.0);
    }
}
