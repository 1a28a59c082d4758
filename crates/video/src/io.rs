//! Minimal image and video I/O: binary PGM/PPM stills and Y4M (YUV4MPEG2)
//! streams, enough to inspect synthetic sequences and mosaics.
//!
//! # Examples
//!
//! ```no_run
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_video::io::write_pgm;
//!
//! let frame = Frame::new(Dims::new(8, 8));
//! write_pgm(&frame, "out.pgm")?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::pixel::Pixel;

/// Writes the luminance plane as a binary PGM (P5).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_pgm(frame: &Frame, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P5\n{} {}\n255\n", frame.width(), frame.height())?;
    w.write_all(&frame.luma_plane())?;
    w.flush()
}

/// Writes the frame as a binary PPM (P6) using a BT.601 YUV→RGB
/// conversion.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_ppm(frame: &Frame, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P6\n{} {}\n255\n", frame.width(), frame.height())?;
    let mut buf = Vec::with_capacity(frame.pixel_count() * 3);
    for p in frame.pixels() {
        let (r, g, b) = yuv_to_rgb(p.y, p.u, p.v);
        buf.extend_from_slice(&[r, g, b]);
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Reads a binary PGM (P5) into a luminance-only frame.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for malformed headers or short
/// payloads, plus any underlying I/O error.
pub fn read_pgm(path: impl AsRef<Path>) -> io::Result<Frame> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    parse_pgm(&bytes)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_pgm(bytes: &[u8]) -> io::Result<Frame> {
    let mut pos = 0usize;
    let mut token = || -> io::Result<String> {
        // Skip whitespace and comments.
        while pos < bytes.len() {
            if bytes[pos].is_ascii_whitespace() {
                pos += 1;
            } else if bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(bad("unexpected end of pgm header"));
        }
        Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
    };

    if token()? != "P5" {
        return Err(bad("not a binary pgm (P5) file"));
    }
    let width: usize = token()?.parse().map_err(|_| bad("bad width"))?;
    let height: usize = token()?.parse().map_err(|_| bad("bad height"))?;
    let maxval: usize = token()?.parse().map_err(|_| bad("bad maxval"))?;
    if maxval != 255 {
        return Err(bad("only 8-bit pgm supported"));
    }
    pos += 1; // single whitespace after maxval
    let need = width * height;
    if bytes.len() < pos + need {
        return Err(bad("pgm payload truncated"));
    }
    Frame::from_luma(Dims::new(width, height), &bytes[pos..pos + need])
        .map_err(|_| bad("inconsistent pgm dimensions"))
}

/// A Y4M (YUV4MPEG2) stream writer in C444 format.
#[derive(Debug)]
pub struct Y4mWriter<W: Write> {
    sink: W,
    dims: Dims,
    frames_written: usize,
}

impl Y4mWriter<BufWriter<File>> {
    /// Creates a Y4M file at `path` for `dims` frames at `fps`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn create(path: impl AsRef<Path>, dims: Dims, fps: u32) -> io::Result<Self> {
        Y4mWriter::new(BufWriter::new(File::create(path)?), dims, fps)
    }
}

impl<W: Write> Y4mWriter<W> {
    /// Wraps any writer (pass `&mut vec` or a file). A mutable reference
    /// to a writer also works.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error while writing the header.
    pub fn new(mut sink: W, dims: Dims, fps: u32) -> io::Result<Self> {
        writeln!(
            sink,
            "YUV4MPEG2 W{} H{} F{}:1 Ip A1:1 C444",
            dims.width, dims.height, fps
        )?;
        Ok(Y4mWriter {
            sink,
            dims,
            frames_written: 0,
        })
    }

    /// Appends one frame.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] when the frame size does
    /// not match the stream, plus any underlying I/O error.
    pub fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        if frame.dims() != self.dims {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame dimensions do not match the stream",
            ));
        }
        writeln!(self.sink, "FRAME")?;
        for plane in [|p: &Pixel| p.y, |p: &Pixel| p.u, |p: &Pixel| p.v] {
            let buf: Vec<u8> = frame.pixels().iter().map(plane).collect();
            self.sink.write_all(&buf)?;
        }
        self.frames_written += 1;
        Ok(())
    }

    /// Frames written so far.
    #[must_use]
    pub const fn frames_written(&self) -> usize {
        self.frames_written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error from the flush.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Reads a C444 Y4M (YUV4MPEG2) stream produced by [`Y4mWriter`] back
/// into frames.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for malformed headers, frame
/// markers or short payloads, plus any underlying I/O error.
pub fn read_y4m(path: impl AsRef<Path>) -> io::Result<Vec<Frame>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    parse_y4m(&bytes)
}

fn parse_y4m(bytes: &[u8]) -> io::Result<Vec<Frame>> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad("missing y4m header terminator"))?;
    let header = String::from_utf8_lossy(&bytes[..header_end]);
    if !header.starts_with("YUV4MPEG2") {
        return Err(bad("not a yuv4mpeg2 stream"));
    }
    let mut width = 0usize;
    let mut height = 0usize;
    let mut c444 = false;
    for tok in header.split_whitespace().skip(1) {
        match tok.split_at(1) {
            ("W", v) => width = v.parse().map_err(|_| bad("bad y4m width"))?,
            ("H", v) => height = v.parse().map_err(|_| bad("bad y4m height"))?,
            ("C", v) => c444 = v == "444",
            _ => {}
        }
    }
    if width == 0 || height == 0 {
        return Err(bad("y4m header lacks dimensions"));
    }
    if !c444 {
        return Err(bad("only C444 y4m streams supported"));
    }
    let dims = Dims::new(width, height);
    let plane = width * height;
    let mut frames = Vec::new();
    let mut pos = header_end + 1;
    while pos < bytes.len() {
        // FRAME marker line (parameters ignored).
        let line_end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| bad("missing frame marker terminator"))?
            + pos;
        if !bytes[pos..line_end].starts_with(b"FRAME") {
            return Err(bad("expected FRAME marker"));
        }
        pos = line_end + 1;
        if bytes.len() < pos + 3 * plane {
            return Err(bad("y4m frame payload truncated"));
        }
        let (ys, rest) = bytes[pos..pos + 3 * plane].split_at(plane);
        let (us, vs) = rest.split_at(plane);
        let mut pixels = Vec::with_capacity(plane);
        for i in 0..plane {
            pixels.push(Pixel::from_yuv(ys[i], us[i], vs[i]));
        }
        frames.push(
            Frame::from_pixels(dims, pixels).map_err(|_| bad("inconsistent y4m dimensions"))?,
        );
        pos += 3 * plane;
    }
    Ok(frames)
}

/// BT.601 full-range YUV → RGB.
fn yuv_to_rgb(y: u8, u: u8, v: u8) -> (u8, u8, u8) {
    let y = f64::from(y);
    let u = f64::from(u) - 128.0;
    let v = f64::from(v) - 128.0;
    let r = y + 1.402 * v;
    let g = y - 0.344_136 * u - 0.714_136 * v;
    let b = y + 1.772 * u;
    (
        r.round().clamp(0.0, 255.0) as u8,
        g.round().clamp(0.0, 255.0) as u8,
        b.round().clamp(0.0, 255.0) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::Point;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vip_video_io_{}_{name}", std::process::id()));
        p
    }

    fn ramp(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_yuv((p.x * 10) as u8, 100 + p.y as u8, 200)
        })
    }

    #[test]
    fn pgm_roundtrip() {
        let path = tmp("roundtrip.pgm");
        let f = ramp(Dims::new(6, 4));
        write_pgm(&f, &path).unwrap();
        let g = read_pgm(&path).unwrap();
        assert_eq!(g.dims(), f.dims());
        assert_eq!(g.luma_plane(), f.luma_plane());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pgm_parse_with_comment() {
        let mut bytes = b"P5\n# a comment\n2 2\n255\n".to_vec();
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let f = parse_pgm(&bytes).unwrap();
        assert_eq!(f.get(Point::new(1, 1)).y, 4);
    }

    #[test]
    fn pgm_rejects_malformed() {
        assert!(parse_pgm(b"P6\n2 2\n255\n....").is_err());
        assert!(parse_pgm(b"P5\n2 2\n65535\n").is_err());
        assert!(
            parse_pgm(b"P5\n2 2\n255\n\x01\x02").is_err(),
            "truncated payload"
        );
        assert!(parse_pgm(b"P5\nx 2\n255\n").is_err());
        assert!(parse_pgm(b"").is_err());
    }

    #[test]
    fn ppm_writes_expected_size() {
        let path = tmp("rgb.ppm");
        let f = ramp(Dims::new(5, 3));
        write_ppm(&f, &path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(len >= 5 * 3 * 3 + 10);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn y4m_stream_structure() {
        let mut buf = Vec::new();
        {
            let mut w = Y4mWriter::new(&mut buf, Dims::new(4, 2), 25).unwrap();
            let f = ramp(Dims::new(4, 2));
            w.write_frame(&f).unwrap();
            w.write_frame(&f).unwrap();
            assert_eq!(w.frames_written(), 2);
            w.into_inner().unwrap();
        }
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("YUV4MPEG2 W4 H2 F25:1"));
        assert_eq!(text.matches("FRAME").count(), 2);
        // Header + 2 × (6 + 3 planes × 8 bytes).
        assert!(buf.len() > 2 * (6 + 3 * 8));
    }

    #[test]
    fn y4m_rejects_mismatched_frames() {
        let mut buf = Vec::new();
        let mut w = Y4mWriter::new(&mut buf, Dims::new(4, 2), 25).unwrap();
        let wrong = ramp(Dims::new(2, 2));
        assert!(w.write_frame(&wrong).is_err());
    }

    #[test]
    fn y4m_roundtrip() {
        let path = tmp("roundtrip.y4m");
        let frames: Vec<Frame> = (0..3)
            .map(|t| {
                Frame::from_fn(Dims::new(6, 4), |p| {
                    Pixel::from_yuv((p.x * 10 + t) as u8, 100, 200)
                })
            })
            .collect();
        {
            let mut w = Y4mWriter::create(&path, Dims::new(6, 4), 25).unwrap();
            for f in &frames {
                w.write_frame(f).unwrap();
            }
            w.into_inner().unwrap();
        }
        let back = read_y4m(&path).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in frames.iter().zip(&back) {
            // Side channels are not carried by Y4M; compare video planes.
            assert_eq!(a.luma_plane(), b.luma_plane());
            assert_eq!(
                a.channel_plane(vip_core::pixel::Channel::U),
                b.channel_plane(vip_core::pixel::Channel::U)
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn y4m_parser_rejects_malformed() {
        assert!(parse_y4m(b"not a stream\n").is_err());
        assert!(parse_y4m(b"YUV4MPEG2 W0 H2 C444\n").is_err());
        assert!(parse_y4m(b"YUV4MPEG2 W2 H2 C420\n").is_err());
        assert!(
            parse_y4m(b"YUV4MPEG2 W2 H2 C444\nFRAME\nxx").is_err(),
            "truncated"
        );
        assert!(parse_y4m(b"YUV4MPEG2 W2 H2 C444\nBOGUS\n").is_err());
        assert!(parse_y4m(b"YUV4MPEG2").is_err(), "no newline");
    }

    #[test]
    fn yuv_to_rgb_grey_is_grey() {
        let (r, g, b) = yuv_to_rgb(100, 128, 128);
        assert_eq!((r, g, b), (100, 100, 100));
        let (r, _, _) = yuv_to_rgb(100, 128, 255);
        assert!(r > 100, "positive V pushes red up");
    }
}
