//! The IIM — input intermediate memory.
//!
//! §3.1: the IIM sits at the input of the processing unit *"because there
//! is a successive pixel reuse at this point of the system. Thus loading
//! the complete neighbourhood for each pixel is avoided. Furthermore …
//! the whole neighbourhood can be obtained in only one cycle, even in the
//! worst case with perpendicular neighbourhood and scan direction"*
//! (fig. 4). It holds sixteen image lines in sixteen line blocks of two
//! FPGA-BRAM banks each (lo/hi pixel words) — 32 embedded memory blocks.
//!
//! A window fetch hands over the `2r+1` resident lines the window reads
//! ([`Iim::fetch_lines`]), re-delivering the edge line past the frame's
//! top or bottom. Stage 2 of the Process Unit LOADs or SHIFTs its matrix
//! register — the AddressLib's own [`Window`] — from those lines, so the
//! engine and the software sweep share one LOAD/SHIFT and one clamped
//! border.
//!
//! For inter addressing *"the IIM will take the form of two FIFOs, one for
//! every input image, with 8 lines each"* (§3.3); the engine models that
//! by instantiating two half-sized IIMs.
//!
//! # Examples
//!
//! ```
//! use vip_engine::iim::Iim;
//! use vip_core::pixel::Pixel;
//!
//! let mut iim = Iim::new(16, 8);
//! iim.load_line(0, &vec![Pixel::from_luma(7); 8]);
//! assert!(iim.has_line(0));
//! assert!(!iim.is_empty());
//! ```

use std::collections::VecDeque;

use vip_core::geometry::{Dims, Point};
use vip_core::neighborhood::{Connectivity, Window, MAX_LINES};
use vip_core::pixel::Pixel;

/// One resident image line.
#[derive(Debug, Clone)]
struct LineBlock {
    line_no: usize,
    pixels: Vec<Pixel>,
}

/// The input intermediate memory: a ring of line blocks.
#[derive(Debug, Clone)]
pub struct Iim {
    capacity_lines: usize,
    width: usize,
    lines: VecDeque<LineBlock>,
    /// BRAM read cycles spent delivering neighbourhoods (one per window,
    /// §3.1's single-cycle parallel fetch).
    window_fetches: u64,
    /// Lines loaded from the ZBT since construction.
    lines_loaded: u64,
}

impl Iim {
    /// Creates an IIM holding up to `capacity_lines` lines of `width`
    /// pixels.
    ///
    /// # Panics
    ///
    /// Panics when `capacity_lines` or `width` is zero.
    #[must_use]
    pub fn new(capacity_lines: usize, width: usize) -> Self {
        assert!(capacity_lines > 0, "IIM needs at least one line block");
        assert!(width > 0, "IIM line width must be positive");
        Iim {
            capacity_lines,
            width,
            lines: VecDeque::new(),
            window_fetches: 0,
            lines_loaded: 0,
        }
    }

    /// Line capacity (16 in the prototype).
    #[must_use]
    pub const fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }

    /// FULL signal: no free line block.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.lines.len() == self.capacity_lines
    }

    /// EMPTY signal: no resident line.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Whether image line `line_no` is resident.
    #[must_use]
    pub fn has_line(&self, line_no: usize) -> bool {
        self.lines.iter().any(|l| l.line_no == line_no)
    }

    /// The oldest resident line number (next eviction victim), if any.
    #[must_use]
    pub fn oldest_line(&self) -> Option<usize> {
        self.lines.front().map(|l| l.line_no)
    }

    /// Loads one image line, evicting the oldest when full (FIFO
    /// behaviour, §3.3). Pixels are cropped/padded to the IIM width.
    pub fn load_line(&mut self, line_no: usize, pixels: &[Pixel]) {
        if self.is_full() {
            self.lines.pop_front();
        }
        let mut row = pixels.to_vec();
        row.resize(self.width, Pixel::default());
        self.lines.push_back(LineBlock {
            line_no,
            pixels: row,
        });
        self.lines_loaded += 1;
    }

    /// Whether the transmission unit may load another pixel without
    /// evicting a line the sweep still needs: either a free line block
    /// exists, or the eviction victim lies strictly before the oldest
    /// in-flight line's window (`needed_oldest`).
    #[must_use]
    pub fn can_accept(&self, needed_oldest: usize) -> bool {
        !self.is_full() || self.oldest_line().is_none_or(|old| old < needed_oldest)
    }

    /// Whether all lines a `shape`-window at `centre` needs (after
    /// clamping to the frame of `dims`) are resident.
    #[must_use]
    pub fn window_ready(&self, centre: Point, shape: Connectivity, dims: Dims) -> bool {
        let r = shape.radius() as i32;
        (-r..=r).all(|dy| {
            let line = (centre.y + dy).clamp(0, dims.height as i32 - 1) as usize;
            self.has_line(line)
        })
    }

    /// Hands over the lines a `shape`-window at `centre` reads, in a
    /// single memory cycle: every line block delivers in parallel (§3.1,
    /// fig. 4). The first `shape.lines()` entries are the resident lines
    /// centred on `centre.y`, cut to `dims.width`; lines past the frame's
    /// top or bottom edge are the edge line re-delivered. Stage 2 LOADs or
    /// SHIFTs its matrix register ([`Window::load`], [`Window::shift`])
    /// from them.
    ///
    /// # Panics
    ///
    /// Panics unless the window is [ready](Iim::window_ready): the
    /// pipeline holds a pixel in stage 1 until it is.
    #[must_use]
    pub fn fetch_lines(
        &mut self,
        centre: Point,
        shape: Connectivity,
        dims: Dims,
    ) -> [&[Pixel]; MAX_LINES] {
        assert!(
            self.window_ready(centre, shape, dims),
            "window fetched before its lines are resident"
        );
        self.window_fetches += 1;
        let r = shape.radius() as i32;
        let mut lines: [&[Pixel]; MAX_LINES] = [&[]; MAX_LINES];
        for (dy, slot) in (-r..=r).zip(&mut lines) {
            let line = (centre.y + dy).clamp(0, dims.height as i32 - 1) as usize;
            let block = self
                .lines
                .iter()
                .find(|l| l.line_no == line)
                .expect("window_ready checked residency");
            *slot = &block.pixels[..dims.width];
        }
        lines
    }

    /// Fetches the full `shape`-window around `centre` in a single memory
    /// cycle: a [`Window::load`] from [`Iim::fetch_lines`]. Accesses
    /// outside the frame clamp to the nearest edge pixel, like the
    /// hardware re-delivering edge lines and edge pixels.
    ///
    /// # Panics
    ///
    /// As [`Iim::fetch_lines`].
    #[must_use]
    pub fn fetch_window(&mut self, centre: Point, shape: Connectivity, dims: Dims) -> Window {
        let lines = self.fetch_lines(centre, shape, dims);
        Window::load(centre, shape, &lines[..shape.lines()])
    }

    /// Single-cycle window fetches served so far.
    #[must_use]
    pub const fn window_fetches(&self) -> u64 {
        self.window_fetches
    }

    /// Lines loaded from the ZBT so far.
    #[must_use]
    pub const fn lines_loaded(&self) -> u64 {
        self.lines_loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(v: u8, w: usize) -> Vec<Pixel> {
        (0..w).map(|x| Pixel::from_luma(v + x as u8)).collect()
    }

    #[test]
    fn fifo_eviction() {
        let mut iim = Iim::new(3, 4);
        for l in 0..4 {
            iim.load_line(l, &line(l as u8 * 10, 4));
        }
        assert!(!iim.has_line(0), "oldest line evicted");
        assert!(iim.has_line(1) && iim.has_line(3));
        assert!(iim.is_full());
        assert_eq!(iim.lines_loaded(), 4);
    }

    #[test]
    fn full_empty_signals() {
        let mut iim = Iim::new(2, 2);
        assert!(iim.is_empty());
        iim.load_line(0, &line(0, 2));
        assert!(!iim.is_empty() && !iim.is_full());
        iim.load_line(1, &line(0, 2));
        assert!(iim.is_full());
    }

    #[test]
    fn window_fetch_one_cycle_when_resident() {
        let dims = Dims::new(4, 4);
        let mut iim = Iim::new(16, 4);
        for l in 0..4 {
            iim.load_line(l, &line(l as u8 * 10, 4));
        }
        let w = iim.fetch_window(Point::new(1, 1), Connectivity::Con8, dims);
        assert_eq!(w.len(), 9);
        assert_eq!(iim.window_fetches(), 1);
        // Sample correctness: offset (1,-1) → line 0, x 2 → 0·10 + 2.
        assert_eq!(w.sample(Point::new(1, -1)).unwrap().y, 2);
    }

    #[test]
    fn missing_line_is_not_ready() {
        let dims = Dims::new(4, 4);
        let mut iim = Iim::new(16, 4);
        iim.load_line(0, &line(0, 4));
        // Window at line 1 needs lines 0..=2; on line 0 it clamps to 0..=1.
        assert!(!iim.window_ready(Point::new(1, 1), Connectivity::Con8, dims));
        assert!(!iim.window_ready(Point::new(1, 0), Connectivity::Con8, dims));
        assert!(iim.window_ready(Point::new(1, 0), Connectivity::Con0, dims));
        iim.load_line(1, &line(10, 4));
        assert!(iim.window_ready(Point::new(1, 0), Connectivity::Con8, dims));
        assert!(!iim.window_ready(Point::new(1, 1), Connectivity::Con8, dims));
    }

    #[test]
    #[should_panic(expected = "before its lines are resident")]
    fn fetching_a_window_that_is_not_ready_panics() {
        let mut iim = Iim::new(16, 4);
        iim.load_line(0, &line(0, 4));
        let dims = Dims::new(4, 4);
        let _ = iim.fetch_window(Point::new(1, 1), Connectivity::Con8, dims);
    }

    #[test]
    fn top_border_clamps_lines() {
        let dims = Dims::new(4, 4);
        let mut iim = Iim::new(16, 4);
        iim.load_line(0, &line(0, 4));
        iim.load_line(1, &line(10, 4));
        // Centre on line 0: offsets dy=-1 clamp to line 0 (resident) — ready.
        let w = iim.fetch_window(Point::new(1, 0), Connectivity::Con8, dims);
        let nw = w.sample(Point::new(-1, -1)).unwrap();
        assert_eq!(nw.y, 0, "clamped to line 0, x 0");
    }

    #[test]
    fn horizontal_border_clamp() {
        let dims = Dims::new(4, 2);
        let mut iim = Iim::new(16, 4);
        iim.load_line(0, &line(0, 4));
        iim.load_line(1, &line(10, 4));
        let w = iim.fetch_window(Point::new(0, 1), Connectivity::Con8, dims);
        let west = w.sample(Point::new(-1, 0)).unwrap();
        assert_eq!(west.y, 10, "clamped to x 0 of line 1");
    }

    #[test]
    fn window_matches_core_gather_in_interior() {
        // The IIM fetch must agree with the clamped window by definition:
        // each sample is the frame pixel at the clamped offset point.
        use vip_core::frame::Frame;
        let dims = Dims::new(6, 6);
        let f = Frame::from_fn(dims, |p| Pixel::from_luma((p.y * 6 + p.x) as u8));
        let mut iim = Iim::new(16, 6);
        for l in 0..6 {
            iim.load_line(l, f.line(l));
        }
        for shape in [
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(4),
        ] {
            for y in 0..6 {
                for x in 0..6 {
                    let c = Point::new(x, y);
                    let samples = shape
                        .offsets_iter()
                        .map(|off| (off, f.get(dims.clamp(c + off).unwrap())));
                    let expect = Window::from_samples(c, shape, samples);
                    assert_eq!(iim.fetch_window(c, shape, dims), expect, "{shape} at {c}");
                }
            }
        }
    }

    #[test]
    fn fetch_lines_hands_over_clamped_lines_cut_to_the_frame() {
        let dims = Dims::new(3, 2);
        let mut iim = Iim::new(4, 5);
        iim.load_line(0, &line(0, 5));
        iim.load_line(1, &line(10, 5));
        let lines = iim.fetch_lines(Point::new(1, 0), Connectivity::Con8, dims);
        assert_eq!(lines[0], &line(0, 3)[..], "top line re-delivered");
        assert_eq!(lines[1], &line(0, 3)[..]);
        assert_eq!(lines[2], &line(10, 3)[..]);
        assert!(lines[3..].iter().all(|l| l.is_empty()));
        assert_eq!(iim.window_fetches(), 1, "one hand-over, one cycle");
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_panics() {
        let _ = Iim::new(0, 4);
    }

    #[test]
    fn short_line_padded() {
        let mut iim = Iim::new(2, 4);
        iim.load_line(0, &line(1, 2)); // shorter than width
        let dims = Dims::new(4, 1);
        let w = iim.fetch_window(Point::new(3, 0), Connectivity::Con0, dims);
        assert_eq!(
            w.centre_pixel(),
            Pixel::default(),
            "padded region is default pixels"
        );
    }
}
