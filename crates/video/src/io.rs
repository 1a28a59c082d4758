//! Minimal image and video output: binary PGM stills and Y4M (YUV4MPEG2)
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
use std::io::{self, BufWriter, Write};
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

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::pixel::Channel;

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
        let mut expected = b"P5\n6 4\n255\n".to_vec();
        expected.extend(f.luma_plane());
        assert_eq!(std::fs::read(&path).unwrap(), expected);
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
        // Side channels are not carried by Y4M: the header, then per
        // frame a marker and the Y, U and V planes.
        let mut expected = b"YUV4MPEG2 W6 H4 F25:1 Ip A1:1 C444\n".to_vec();
        for f in &frames {
            expected.extend(b"FRAME\n");
            for channel in [Channel::Y, Channel::U, Channel::V] {
                expected.extend(f.channel_plane(channel).iter().map(|&s| s as u8));
            }
        }
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_file(path).ok();
    }
}
