//! Pixel operations: the sub-functions executed in stage 3 of the Process
//! Unit.
//!
//! §2.2 of the paper: *"Pixel-level operations may be separated into basic
//! sub-functions, such as add, sub, mult, grad, in order to achieve
//! efficiency and flexibility. These sub-functions can be combined to form
//! more complex operations."*
//!
//! Two kernel families exist, mirroring the two hardware-supported
//! addressing modes:
//!
//! * [`InterOp`] — combines one pixel from each of two frames
//!   (difference pictures, SAD terms, blending, …).
//! * [`IntraOp`] — maps a neighbourhood [`Window`] of one frame to an
//!   output pixel (filters, gradients, morphology, …).
//!
//! Reductions (SAD totals, histograms) are provided in [`reduce`]
//! as accumulators layered over the same kernels.

pub mod arith;
pub mod compose;
pub mod filter;
pub mod lut;
pub mod morph;
pub mod rank;
pub mod reduce;
pub mod segment_ops;

use crate::geometry::Point;
use crate::neighborhood::{Connectivity, Window};
use crate::pixel::{ChannelSet, Pixel};

/// A kernel for inter addressing: one output pixel from a pair of input
/// pixels at the same position of two frames.
///
/// Implementors define [`InterOp::apply`] for one pixel pair; the
/// executors drive it through the provided [`InterOp::apply_row`], one
/// call per row of pixels, so a `&dyn InterOp` costs one virtual call per
/// row and the per-pixel loop is monomorphised for the concrete kernel.
/// The kernel reports which channels it reads and writes so the
/// memory-access accounting (Table 2) can attribute traffic exactly.
pub trait InterOp {
    /// Short stable kernel name (used in reports and traces).
    fn name(&self) -> &'static str;

    /// Channels read from *each* input pixel.
    fn input_channels(&self) -> ChannelSet;

    /// Channels written to the output pixel. Unwritten channels are taken
    /// from the first input frame.
    fn output_channels(&self) -> ChannelSet;

    /// Combines one pixel from frame A and one from frame B.
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel;

    /// Appends to `out` the output pixel of each pair `(a[i], b[i])`: the
    /// channels of [`InterOp::apply`]'s result that
    /// [`InterOp::output_channels`] names, merged into `a[i]`.
    ///
    /// A kernel may override this with a faster row body (`AbsDiff` and
    /// `ChangeMask` store only their output channels into a copy of each
    /// `a[i]`), but an override must append the same pixels as this
    /// provided body; only the work per pixel may differ.
    ///
    /// # Panics
    ///
    /// Panics when `a` and `b` differ in length.
    fn apply_row(&self, a: &[Pixel], b: &[Pixel], out: &mut Vec<Pixel>) {
        assert_eq!(a.len(), b.len(), "inter rows differ in length");
        let set = self.output_channels();
        out.extend(a.iter().zip(b).map(|(&pa, &pb)| {
            let mut merged = pa;
            merged.merge_channels(self.apply(pa, pb), set);
            merged
        }));
    }
}

/// A kernel for intra addressing: one output pixel from the neighbourhood
/// window around the corresponding input position.
///
/// Implementors define [`IntraOp::apply`] for one window; the executors
/// drive it through [`IntraOp::apply_row`], one call per row of pixels,
/// so a `&dyn IntraOp` costs one virtual call per row and the per-pixel
/// loop is monomorphised for the concrete kernel.
///
/// [`IntraOp::apply`] is the kernel's definition: the cycle-stepped
/// Process Unit runs it on its matrix register, window by window. The
/// provided [`IntraOp::apply_row`] runs it too, over a LOAD/SHIFT window.
/// A kernel may override [`IntraOp::apply_row`] with a faster row body
/// (the fixed 3×3 kernels fold each column once, append the centre line
/// and store each output value into their output channels), but the
/// override must produce exactly the pixels the per-window definition
/// does.
pub trait IntraOp {
    /// Short stable kernel name (used in reports and traces).
    fn name(&self) -> &'static str;

    /// The neighbourhood shape this kernel needs.
    fn shape(&self) -> Connectivity;

    /// Channels read from each input sample.
    fn input_channels(&self) -> ChannelSet;

    /// Channels written to the output pixel. Unwritten channels are taken
    /// from the window centre.
    fn output_channels(&self) -> ChannelSet;

    /// Maps a gathered window to the output pixel.
    fn apply(&self, window: &Window) -> Pixel;

    /// Appends to `out` the output pixel of each column of row `y`: the
    /// channels of [`IntraOp::apply`]'s result that
    /// [`IntraOp::output_channels`] names, merged into the centre pixel.
    ///
    /// `lines` are the `shape().lines()` frame lines centred on row `y`
    /// (`lines[radius]` is row `y` itself), all of one width; lines past
    /// the frame's top or bottom edge are the edge line repeated. Columns
    /// past either end clamp to the edge column, so the row sees the
    /// windows of [`Window::gather`]. The window is LOADed once at the row
    /// start ([`Window::load`]) and SHIFTed one column per pixel
    /// ([`Window::shift`]), as the Process Unit's matrix register is.
    ///
    /// An override must append the same pixels as this provided sweep
    /// over [`IntraOp::apply`]; only the work per pixel may differ.
    ///
    /// # Panics
    ///
    /// Panics when `lines` does not hold `shape().lines()` lines of equal
    /// width, or the shape is wider than
    /// [`MAX_LINES`](crate::neighborhood::MAX_LINES).
    fn apply_row(&self, lines: &[&[Pixel]], y: i32, out: &mut Vec<Pixel>) {
        let shape = self.shape();
        assert_eq!(
            lines.len(),
            shape.lines(),
            "intra row needs one line per window row"
        );
        let centre_line = lines[shape.radius()];
        assert!(
            lines.iter().all(|line| line.len() == centre_line.len()),
            "intra row lines differ in width"
        );
        if centre_line.is_empty() {
            return;
        }
        let set = self.output_channels();
        let mut window = Window::load(Point::new(0, y), shape, lines);
        out.reserve(centre_line.len());
        for (x, &centre) in centre_line.iter().enumerate() {
            if x > 0 {
                window.shift(lines);
            }
            let mut merged = centre;
            merged.merge_channels(self.apply(&window), set);
            out.push(merged);
        }
    }
}

/// One row of a 3×3 kernel (`CON_8`, or `CON_4` inside it), for
/// [`IntraOp::apply_row`] overrides.
///
/// The column pass folds the three `lines` (above, centre, below) into
/// one `column` value per column, into a lane of `w + 2` values whose two
/// ends repeat the edge column: the left and right clamp of
/// [`Window::load`] and [`Window::shift`], in one place. Six of a
/// window's nine samples are shared with its left neighbour (§3.5), so
/// each sample is read once per row instead of three times. The centre
/// line is then appended to `out` as it is, and for each appended pixel
/// `combine` turns the column values left of, under and right of it into
/// the kernel's output value, which `store` writes into the kernel's
/// output channels. Every other channel keeps the centre pixel's value.
/// `column` borrows its three samples: handed whole pixels by value, the
/// column pass ran about a fifth slower (`AlphaMajority` on QCIF and CIF
/// frames, 2-vCPU x86-64 host).
///
/// # Panics
///
/// Panics unless `lines` holds three lines of equal width.
pub(crate) fn sweep_3x3<C: Copy, V>(
    lines: &[&[Pixel]],
    out: &mut Vec<Pixel>,
    column: impl Fn(&Pixel, &Pixel, &Pixel) -> C,
    combine: impl Fn(C, C, C) -> V,
    store: impl Fn(&mut Pixel, V),
) {
    let &[above, centre, below] = lines else {
        panic!("intra row needs one line per window row");
    };
    assert!(
        above.len() == centre.len() && below.len() == centre.len(),
        "intra row lines differ in width"
    );
    let Some(last) = centre.len().checked_sub(1) else {
        return;
    };
    let at = |x: usize| column(&above[x], &centre[x], &below[x]);
    let mut columns = Vec::with_capacity(centre.len() + 2);
    columns.push(at(0));
    columns.extend(
        above
            .iter()
            .zip(centre)
            .zip(below)
            .map(|((a, b), c)| column(a, b, c)),
    );
    columns.push(at(last));
    let start = out.len();
    out.extend_from_slice(centre);
    let triples = columns.iter().zip(&columns[1..]).zip(&columns[2..]);
    for (px, ((&l, &m), &r)) in out[start..].iter_mut().zip(triples) {
        store(px, combine(l, m, r));
    }
}

/// One row of a pointwise inter kernel, for [`InterOp::apply_row`]
/// overrides: for each pair `(a[i], b[i])`, `value` is the kernel's
/// output value, which `store` writes into the output channels of a copy
/// of `a[i]` before it is appended to `out`. Every other channel keeps
/// `a[i]`'s value, as the provided row body's channel merge does.
///
/// Unlike [`sweep_3x3`], this does not append `a` first and store into
/// it afterwards. An inter row is a whole frame, and on a 2-vCPU x86-64
/// host that two-pass form ran the `engine_detailed` benchmark (CIF
/// `AbsDiff`) about 9 % slower than this one-pass form, while it ran
/// `surveillance` (QCIF `ChangeMask`) only about 3 % faster; appending
/// in 1024-pixel pieces kept that gain but not the CIF speed.
///
/// # Panics
///
/// Panics when `a` and `b` differ in length.
pub(crate) fn zip_rows<V>(
    a: &[Pixel],
    b: &[Pixel],
    out: &mut Vec<Pixel>,
    value: impl Fn(&Pixel, &Pixel) -> V,
    store: impl Fn(&mut Pixel, V),
) {
    assert_eq!(a.len(), b.len(), "inter rows differ in length");
    out.extend(a.iter().zip(b).map(|(pa, pb)| {
        let mut px = *pa;
        store(&mut px, value(pa, pb));
        px
    }));
}

impl<T: InterOp + ?Sized> InterOp for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn input_channels(&self) -> ChannelSet {
        (**self).input_channels()
    }
    fn output_channels(&self) -> ChannelSet {
        (**self).output_channels()
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        (**self).apply(a, b)
    }
    fn apply_row(&self, a: &[Pixel], b: &[Pixel], out: &mut Vec<Pixel>) {
        (**self).apply_row(a, b, out);
    }
}

impl<T: IntraOp + ?Sized> IntraOp for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn shape(&self) -> Connectivity {
        (**self).shape()
    }
    fn input_channels(&self) -> ChannelSet {
        (**self).input_channels()
    }
    fn output_channels(&self) -> ChannelSet {
        (**self).output_channels()
    }
    fn apply(&self, window: &Window) -> Pixel {
        (**self).apply(window)
    }
    fn apply_row(&self, lines: &[&[Pixel]], y: i32, out: &mut Vec<Pixel>) {
        (**self).apply_row(lines, y, out);
    }
}

#[cfg(test)]
mod tests {
    use super::arith::AbsDiff;
    use super::filter::BoxBlur;
    use super::*;

    #[test]
    fn trait_objects_work() {
        let op: &dyn InterOp = &AbsDiff::luma();
        assert_eq!(op.name(), "absdiff");
        let i: &dyn IntraOp = &BoxBlur::con8();
        assert_eq!(i.shape(), Connectivity::Con8);
    }

    #[test]
    fn reference_forwarding() {
        let op = AbsDiff::luma();
        fn takes_generic<O: InterOp>(o: O) -> &'static str {
            o.name()
        }
        assert_eq!(takes_generic(op), "absdiff");
    }
}
