//! Segment-indexed addressing: indexed-table accesses running in parallel
//! to another addressing scheme.
//!
//! §2.1: *"Segment indexed addressing is an addressing method, which is
//! used in parallel to one of the above addressing methods, when data
//! associated to a segment is needed or generated during the pixel
//! processing, e.g. segment identification numbers. This is done accessing
//! an indexed table."* The scheme *"differs from the other schemes by not
//! addressing pixel data"*.
//!
//! # Examples
//!
//! ```
//! use vip_core::addressing::indexed::SegmentTable;
//!
//! let mut table: SegmentTable<u32> = SegmentTable::with_len(4);
//! *table.entry_mut(2)? += 10;
//! assert_eq!(*table.entry(2)?, 10);
//! assert_eq!(table.accesses().total(), 2);
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use core::fmt;

use crate::accounting::AccessCounter;
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::geometry::Point;

/// An indexed table with access accounting: the storage behind
/// segment-indexed addressing.
///
/// Indices are segment identification numbers (or any other per-segment
/// key); entries are arbitrary per-segment records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentTable<T> {
    entries: Vec<T>,
    accesses: AccessCounter,
}

impl<T: Default + Clone> SegmentTable<T> {
    /// Creates a table of `len` default-initialised entries.
    #[must_use]
    pub fn with_len(len: usize) -> Self {
        SegmentTable {
            entries: vec![T::default(); len],
            accesses: AccessCounter::new(),
        }
    }
}

impl<T> SegmentTable<T> {
    /// Creates a table from existing entries.
    #[must_use]
    pub fn from_entries(entries: Vec<T>) -> Self {
        SegmentTable {
            entries,
            accesses: AccessCounter::new(),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads entry `index`, counting one table read.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IndexOutOfRange`] for invalid indices.
    pub fn entry(&mut self, index: usize) -> CoreResult<&T> {
        self.accesses.read(1);
        self.entries.get(index).ok_or(CoreError::IndexOutOfRange {
            index,
            len: self.entries.len(),
        })
    }

    /// Mutably accesses entry `index`, counting one table write.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IndexOutOfRange`] for invalid indices.
    pub fn entry_mut(&mut self, index: usize) -> CoreResult<&mut T> {
        self.accesses.write(1);
        let len = self.entries.len();
        self.entries
            .get_mut(index)
            .ok_or(CoreError::IndexOutOfRange { index, len })
    }

    /// The accumulated table access counts.
    #[must_use]
    pub const fn accesses(&self) -> AccessCounter {
        self.accesses
    }

    /// Iterates over the entries (without counting accesses — this is the
    /// host-side bulk read after a call completes).
    pub fn iter(&self) -> core::slice::Iter<'_, T> {
        self.entries.iter()
    }

    /// Consumes the table, returning its entries.
    #[must_use]
    pub fn into_entries(self) -> Vec<T> {
        self.entries
    }
}

impl<T> AsRef<[T]> for SegmentTable<T> {
    fn as_ref(&self) -> &[T] {
        &self.entries
    }
}

impl<T: fmt::Debug> fmt::Display for SegmentTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SegmentTable[{} entries, {}]",
            self.entries.len(),
            self.accesses
        )
    }
}

/// Per-segment statistics accumulated during a labelled pass — the
/// canonical "data associated to a segment" of §2.1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Number of member pixels.
    pub area: u64,
    /// Sum of member luminance values.
    pub luma_sum: u64,
    /// Bounding-box minimum (x, y); (0, 0) when empty.
    pub min: (i32, i32),
    /// Bounding-box maximum (x, y); (0, 0) when empty.
    pub max: (i32, i32),
}

impl SegmentRecord {
    /// Folds one member pixel into the record.
    pub fn add_pixel(&mut self, point: Point, luma: u8) {
        if self.area == 0 {
            self.min = (point.x, point.y);
            self.max = (point.x, point.y);
        } else {
            self.min = (self.min.0.min(point.x), self.min.1.min(point.y));
            self.max = (self.max.0.max(point.x), self.max.1.max(point.y));
        }
        self.area += 1;
        self.luma_sum += u64::from(luma);
    }

    /// Folds a run of `len` member pixels, `x0..x0 + len` on row `y`
    /// with luminance sum `luma_sum`, into the record: the same record as
    /// [`SegmentRecord::add_pixel`] on each pixel of the run in turn.
    fn add_run(&mut self, x0: i32, y: i32, len: usize, luma_sum: u64) {
        let x1 = x0 + len as i32 - 1;
        if self.area == 0 {
            self.min = (x0, y);
            self.max = (x1, y);
        } else {
            self.min = (self.min.0.min(x0), self.min.1.min(y));
            self.max = (self.max.0.max(x1), self.max.1.max(y));
        }
        self.area += len as u64;
        self.luma_sum += luma_sum;
    }

    /// Mean luminance of the segment (0 when empty).
    #[must_use]
    pub fn mean_luma(&self) -> f64 {
        if self.area == 0 {
            0.0
        } else {
            self.luma_sum as f64 / self.area as f64
        }
    }
}

/// Scans a labelled frame (labels in the alpha channel; 0 = unlabelled)
/// and accumulates a [`SegmentRecord`] per label into an indexed table —
/// an intra sweep with parallel segment-indexed addressing.
///
/// The table is sized to the largest label + 1; entry 0 collects the
/// unlabelled background.
///
/// Every pixel performs one indexed write in parallel to the sweep, so
/// the table charges `n` writes for `n` pixels in closed form. The host
/// loop walks each row once and folds every run of equal labels into its
/// record in one update; the records are those of
/// [`SegmentRecord::add_pixel`] on every pixel in scan order.
///
/// # Errors
///
/// Returns [`CoreError::EmptyFrame`] for zero-area frames.
pub fn accumulate_segment_stats(frame: &Frame) -> CoreResult<SegmentTable<SegmentRecord>> {
    let dims = frame.dims();
    if dims.is_empty() {
        return Err(CoreError::EmptyFrame);
    }
    let mut entries: Vec<SegmentRecord> = Vec::new();
    for y in 0..dims.height {
        let line = frame.line(y);
        let mut x0 = 0;
        while x0 < line.len() {
            let label = line[x0].alpha;
            let run = line[x0..].iter().take_while(|px| px.alpha == label);
            let (len, luma_sum) = run.fold((0, 0), |(n, sum), px| (n + 1, sum + u64::from(px.y)));
            let index = usize::from(label);
            if index >= entries.len() {
                entries.resize(index + 1, SegmentRecord::default());
            }
            entries[index].add_run(x0 as i32, y as i32, len, luma_sum);
            x0 += len;
        }
    }
    let mut table = SegmentTable::from_entries(entries);
    table.accesses.write(frame.pixel_count() as u64);
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;
    use crate::pixel::Pixel;

    #[test]
    fn table_read_write_and_accounting() {
        let mut t: SegmentTable<u32> = SegmentTable::with_len(3);
        *t.entry_mut(0).unwrap() = 5;
        *t.entry_mut(0).unwrap() += 1;
        assert_eq!(*t.entry(0).unwrap(), 6);
        assert_eq!(t.accesses().writes(), 2);
        assert_eq!(t.accesses().reads(), 1);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn out_of_range_is_error_and_counted() {
        let mut t: SegmentTable<u8> = SegmentTable::with_len(1);
        assert!(matches!(
            t.entry(3),
            Err(CoreError::IndexOutOfRange { index: 3, len: 1 })
        ));
        assert!(t.entry_mut(1).is_err());
        // Failed accesses still count (the hardware issues them too).
        assert_eq!(t.accesses().total(), 2);
    }

    #[test]
    fn from_entries_and_into_entries() {
        let t = SegmentTable::from_entries(vec![1, 2, 3]);
        assert_eq!(t.as_ref(), &[1, 2, 3]);
        assert_eq!(t.iter().sum::<i32>(), 6);
        assert_eq!(t.into_entries(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_table() {
        let t: SegmentTable<u8> = SegmentTable::with_len(0);
        assert!(t.is_empty());
        assert!(t.to_string().contains("0 entries"));
    }

    #[test]
    fn record_accumulates_area_and_bbox() {
        let mut r = SegmentRecord::default();
        assert_eq!(r.mean_luma(), 0.0);
        r.add_pixel(Point::new(3, 4), 10);
        r.add_pixel(Point::new(1, 6), 30);
        assert_eq!(r.area, 2);
        assert_eq!(r.min, (1, 4));
        assert_eq!(r.max, (3, 6));
        assert!((r.mean_luma() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_stats_over_labelled_frame() {
        let mut f = Frame::filled(Dims::new(4, 2), Pixel::from_luma(10));
        // Label 1: two pixels at (0,0) and (1,0) with luma 100.
        for x in 0..2 {
            f.set(Point::new(x, 0), Pixel::from_luma(100).with_alpha(1));
        }
        // Label 3: one pixel at (3,1).
        f.set(Point::new(3, 1), Pixel::from_luma(40).with_alpha(3));

        let table = accumulate_segment_stats(&f).unwrap();
        assert_eq!(table.len(), 4);
        let entries = table.as_ref();
        assert_eq!(entries[1].area, 2);
        assert!((entries[1].mean_luma() - 100.0).abs() < 1e-12);
        assert_eq!(entries[1].min, (0, 0));
        assert_eq!(entries[1].max, (1, 0));
        assert_eq!(entries[3].area, 1);
        assert_eq!(entries[2].area, 0);
        assert_eq!(entries[0].area, 5); // background
    }

    #[test]
    fn accumulate_counts_one_write_per_pixel() {
        let f = Frame::new(Dims::new(3, 3));
        let table = accumulate_segment_stats(&f).unwrap();
        assert_eq!(table.accesses().writes(), 9);
    }

    /// The per-pixel reference: one [`SegmentRecord::add_pixel`] through
    /// [`SegmentTable::entry_mut`] per pixel in scan order.
    fn per_pixel_stats(frame: &Frame) -> SegmentTable<SegmentRecord> {
        let max_label = frame.pixels().iter().map(|p| p.alpha).max().unwrap();
        let mut table: SegmentTable<SegmentRecord> =
            SegmentTable::with_len(usize::from(max_label) + 1);
        for (point, px) in frame.enumerate() {
            table
                .entry_mut(usize::from(px.alpha))
                .unwrap()
                .add_pixel(point, px.y);
        }
        table
    }

    /// A labelling: the label at scan index `i`, column `x` and row `y`.
    type LabelOf = fn(usize, usize, usize) -> u16;

    #[test]
    fn accumulate_matches_the_per_pixel_fold() {
        let sizes = [
            Dims::new(1, 1),
            Dims::new(1, 9),
            Dims::new(9, 1),
            Dims::new(37, 5),
            Dims::new(176, 144),
        ];
        let labellings: [(&str, LabelOf); 5] = [
            ("all background", |_, _, _| 0),
            ("one label per pixel", |i, _, _| (i + 1) as u16),
            // Runs of seven along the scan order, so most cross a row end.
            ("runs across row ends", |i, _, _| (i / 7 % 3) as u16),
            ("labels reappearing after gaps", |_, x, y| {
                [2, 0, 5, 2, 1, 0, 5][(x / 3 + y) % 7]
            }),
            ("the largest label", |i, x, _| {
                if i % 11 < 4 {
                    u16::MAX
                } else {
                    (x % 2) as u16
                }
            }),
        ];
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        for dims in sizes {
            for (name, label) in labellings {
                let frame = Frame::from_fn(dims, |p| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let (x, y) = (p.x as usize, p.y as usize);
                    Pixel::from_luma(rng as u8).with_alpha(label(y * dims.width + x, x, y))
                });
                let table = accumulate_segment_stats(&frame).unwrap();
                let reference = per_pixel_stats(&frame);
                assert_eq!(table.len(), reference.len(), "{dims} {name}: length");
                for (i, (got, want)) in table.iter().zip(reference.iter()).enumerate() {
                    assert_eq!(got, want, "{dims} {name}: record {i}");
                }
                assert_eq!(
                    table.accesses(),
                    reference.accesses(),
                    "{dims} {name}: accesses"
                );
            }
        }
    }

    #[test]
    fn accumulate_rejects_empty_frame() {
        assert!(matches!(
            accumulate_segment_stats(&Frame::new(Dims::new(0, 1))),
            Err(CoreError::EmptyFrame)
        ));
    }
}
