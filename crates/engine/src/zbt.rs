//! The on-board ZBT SRAM model: six independent banks with one 32-bit
//! read/write port each, organised as in fig. 3 of the paper.
//!
//! Input images pair two banks so that the lo and hi words of a 64-bit
//! pixel live *"in the same position of two different ZBT banks. In that
//! way it is possible to access any pixel within only one memory cycle"*
//! (§3.1). The result image instead stores both words *sequentially in the
//! same memory bank* so the PC receives properly ordered data — which is
//! why a result-pixel write costs two word cycles and the OIM has to
//! buffer (§3.1).
//!
//! A fresh [`ZbtMemory`] holds only its geometry. The banks are allocated
//! on the first data access, each as its own zeroed allocation, so an
//! engine that never drives the cycle-stepped datapath holds no bank
//! storage and a cycle-stepped one has resident only the pages its frames
//! touch. Untouched words read as 0 either way. The fast-forward datapath
//! moves no pixels: [`ZbtMemory::call_traffic`] gives a call's bank
//! traffic from the geometry alone and [`ZbtMemory::charge`] counts it.
//!
//! # Examples
//!
//! ```
//! use vip_engine::config::EngineConfig;
//! use vip_engine::zbt::{ZbtMemory, ZbtRegion};
//! use vip_core::pixel::Pixel;
//!
//! let mut zbt = ZbtMemory::new(&EngineConfig::prototype());
//! let px = Pixel::new(1, 2, 3, 4, 5);
//! zbt.write_input_pixel(ZbtRegion::InputA, 100, px)?;
//! assert_eq!(zbt.read_input_pixel(ZbtRegion::InputA, 100)?, px);
//! # Ok::<(), vip_engine::error::EngineError>(())
//! ```

use core::fmt;

use vip_core::accounting::AddressingMode;
use vip_core::geometry::Dims;
use vip_core::pixel::Pixel;

use crate::clock::Cycles;
use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};

/// The three image regions of the fig. 3 memory distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZbtRegion {
    /// First input image (banks 0 + 1, lo/hi paired).
    InputA,
    /// Second input image (banks 2 + 3, lo/hi paired).
    InputB,
    /// Result image (banks 4 and 5: Res_block_A then Res_block_B,
    /// sequential lo/hi words within the bank).
    Result,
}

impl ZbtRegion {
    /// All regions.
    pub const ALL: [ZbtRegion; 3] = [ZbtRegion::InputA, ZbtRegion::InputB, ZbtRegion::Result];
}

impl fmt::Display for ZbtRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZbtRegion::InputA => f.write_str("input_A"),
            ZbtRegion::InputB => f.write_str("input_B"),
            ZbtRegion::Result => f.write_str("result"),
        }
    }
}

/// The fig. 3 bank map in bank order: each region's label and its
/// `(first, last)` bank. The pixel accessors,
/// [`ZbtMemory::call_traffic`] and [`ZbtMemory::memory_map`] read it.
const BANK_MAP: [(&str, (usize, usize)); 4] = [
    ("input_A (block_A/block_B alternating strips)", (0, 1)),
    ("input_B (block_A/block_B alternating strips)", (2, 3)),
    ("Res_block_A (lo/hi sequential)", (4, 4)),
    ("Res_block_B (lo/hi sequential)", (5, 5)),
];

/// Per-bank access statistics (32-bit word operations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Word reads issued to the bank.
    pub word_reads: u64,
    /// Word writes issued to the bank.
    pub word_writes: u64,
}

impl BankStats {
    /// Total word operations.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.word_reads + self.word_writes
    }
}

/// Per-bank word operations and pixel access cycles: the access
/// counters of a [`ZbtMemory`], or the traffic of one call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZbtTraffic {
    /// Word operations per bank, in bank order.
    pub banks: Vec<BankStats>,
    /// Pixel-granularity access cycles (Table 2 "hardware accesses").
    pub pixel_access_cycles: u64,
}

/// The six-bank ZBT memory with fig. 3 layout and access accounting.
#[derive(Debug, Clone)]
pub struct ZbtMemory {
    bank_count: usize,
    bank_words: usize,
    /// Bank contents; empty until the first data access.
    banks: Vec<Vec<u32>>,
    stats: Vec<BankStats>,
    /// Pixel-granularity access cycles (the Table 2 "hardware accesses"):
    /// one per input-pixel read cycle, one per result-pixel write.
    pixel_access_cycles: u64,
}

impl ZbtMemory {
    /// A memory with the bank geometry of `config`. No bank storage is
    /// allocated until the first data access.
    #[must_use]
    pub fn new(config: &EngineConfig) -> Self {
        ZbtMemory {
            bank_count: config.zbt_banks,
            bank_words: config.zbt_bank_words,
            banks: Vec::new(),
            stats: vec![BankStats::default(); config.zbt_banks],
            pixel_access_cycles: 0,
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.bank_count
    }

    /// Words per bank.
    #[must_use]
    pub fn bank_words(&self) -> usize {
        self.bank_words
    }

    /// Bytes one image region holds: two banks of 32-bit words, i.e. one
    /// 64-bit pixel per bank word.
    pub(crate) fn region_bytes(&self) -> usize {
        self.bank_words * 8
    }

    /// Whether the bank storage has been allocated (by a data access).
    #[cfg(test)]
    pub(crate) fn is_materialised(&self) -> bool {
        !self.banks.is_empty()
    }

    /// The bank contents, allocated on first use. Each bank is its own
    /// zeroed allocation rather than a copy of one, so only the pages that
    /// are written or read become resident.
    fn banks(&mut self) -> &mut [Vec<u32>] {
        if self.banks.is_empty() {
            self.banks = (0..self.bank_count)
                .map(|_| vec![0u32; self.bank_words])
                .collect();
        }
        &mut self.banks
    }

    /// Whether a frame of `dims` fits each region (pixel-paired regions
    /// need one word per pixel per bank; the result region needs two).
    #[must_use]
    pub fn fits(&self, dims: Dims) -> bool {
        let px = dims.pixel_count();
        // Paired input regions: px words per bank. Result region: each
        // Res_block half takes ceil(px/2) pixels at two words each, so
        // the result bound 2·ceil(px/2) covers the input bound too.
        2 * px.div_ceil(2) <= self.bank_words
    }

    /// The `(first, second)` banks of `region`: the lo/hi pair of an
    /// input region, Res_block_A and Res_block_B of the result region.
    fn region_banks(&self, region: ZbtRegion) -> (usize, usize) {
        match region {
            ZbtRegion::InputA => BANK_MAP[0].1,
            ZbtRegion::InputB => BANK_MAP[1].1,
            ZbtRegion::Result => (BANK_MAP[2].1 .0, BANK_MAP[3].1 .0),
        }
    }

    fn check(&self, bank: usize, addr: usize) -> EngineResult<()> {
        if bank >= self.bank_count || addr >= self.bank_words {
            return Err(EngineError::ZbtOutOfRange {
                bank,
                addr,
                bank_words: self.bank_words,
            });
        }
        Ok(())
    }

    /// Writes one 32-bit word (DMA inbound path).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] for invalid addresses.
    pub fn write_word(&mut self, bank: usize, addr: usize, word: u32) -> EngineResult<()> {
        self.check(bank, addr)?;
        self.banks()[bank][addr] = word;
        self.stats[bank].word_writes += 1;
        Ok(())
    }

    /// Reads one 32-bit word (DMA outbound path).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] for invalid addresses.
    pub fn read_word(&mut self, bank: usize, addr: usize) -> EngineResult<u32> {
        self.check(bank, addr)?;
        self.stats[bank].word_reads += 1;
        Ok(self.banks()[bank][addr])
    }

    /// Writes an input pixel at linear index `index`: lo and hi words go
    /// to the same address of the region's paired banks — one memory
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] when the index exceeds the
    /// bank, and rejects [`ZbtRegion::Result`] which is not pixel-paired.
    pub fn write_input_pixel(
        &mut self,
        region: ZbtRegion,
        index: usize,
        pixel: Pixel,
    ) -> EngineResult<Cycles> {
        if region == ZbtRegion::Result {
            return Err(EngineError::PipelineHazard {
                detail: "result region is written via write_result_pixel",
            });
        }
        let (lo_bank, hi_bank) = self.region_banks(region);
        let (lo, hi) = pixel.to_words();
        self.write_word(lo_bank, index, lo)?;
        self.write_word(hi_bank, index, hi)?;
        Ok(Cycles(1)) // both banks in parallel
    }

    /// Reads an input pixel in one memory cycle (both banks in parallel).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] for invalid indices and
    /// rejects the result region.
    pub fn read_input_pixel(&mut self, region: ZbtRegion, index: usize) -> EngineResult<Pixel> {
        if region == ZbtRegion::Result {
            return Err(EngineError::PipelineHazard {
                detail: "result region is read via read_result_pixel",
            });
        }
        let (lo_bank, hi_bank) = self.region_banks(region);
        let lo = self.read_word(lo_bank, index)?;
        let hi = self.read_word(hi_bank, index)?;
        self.pixel_access_cycles += 1;
        Ok(Pixel::from_words(lo, hi))
    }

    /// Reads the input pixels of both input regions at the same index in
    /// a *single* memory cycle — the parallel-bank trick that keeps inter
    /// addressing at one read cycle per pixel.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] for invalid indices.
    pub fn read_input_pair(&mut self, index: usize) -> EngineResult<(Pixel, Pixel)> {
        let [a, b] = [ZbtRegion::InputA, ZbtRegion::InputB].map(|r| self.region_banks(r));
        let a = Pixel::from_words(self.read_word(a.0, index)?, self.read_word(a.1, index)?);
        let b = Pixel::from_words(self.read_word(b.0, index)?, self.read_word(b.1, index)?);
        self.pixel_access_cycles += 1; // all four banks fire together
        Ok((a, b))
    }

    /// Writes a result pixel: lo and hi words land *sequentially* in the
    /// same result bank (Res_block_A for the first half of the image,
    /// Res_block_B for the second — the single bank switch of §3.1).
    /// Costs two word cycles; counted as one pixel access.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] when the pixel does not fit
    /// the result bank.
    pub fn write_result_pixel(
        &mut self,
        index: usize,
        total_pixels: usize,
        pixel: Pixel,
    ) -> EngineResult<Cycles> {
        let (bank_a, bank_b) = self.region_banks(ZbtRegion::Result);
        let half = total_pixels.div_ceil(2);
        let (bank, local) = if index < half {
            (bank_a, index)
        } else {
            (bank_b, index - half)
        };
        let (lo, hi) = pixel.to_words();
        self.write_word(bank, 2 * local, lo)?;
        self.write_word(bank, 2 * local + 1, hi)?;
        self.pixel_access_cycles += 1;
        Ok(Cycles(2)) // sequential words in one bank
    }

    /// Reads a result pixel back (outbound DMA / verification path).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] for invalid indices.
    pub fn read_result_pixel(&mut self, index: usize, total_pixels: usize) -> EngineResult<Pixel> {
        let (bank_a, bank_b) = self.region_banks(ZbtRegion::Result);
        let half = total_pixels.div_ceil(2);
        let (bank, local) = if index < half {
            (bank_a, index)
        } else {
            (bank_b, index - half)
        };
        let lo = self.read_word(bank, 2 * local)?;
        let hi = self.read_word(bank, 2 * local + 1)?;
        Ok(Pixel::from_words(lo, hi))
    }

    /// Writes a run of input pixels starting at linear index `start` —
    /// the bulk DMA-inbound path. Data movement and accounting are
    /// identical to `pixels.len()` calls of
    /// [`ZbtMemory::write_input_pixel`], with one bounds check per bank
    /// instead of one per word.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] when the run exceeds the
    /// bank, and rejects [`ZbtRegion::Result`] which is not pixel-paired.
    pub fn write_input_run(
        &mut self,
        region: ZbtRegion,
        start: usize,
        pixels: &[Pixel],
    ) -> EngineResult<Cycles> {
        if region == ZbtRegion::Result {
            return Err(EngineError::PipelineHazard {
                detail: "result region is written via write_result_pixel",
            });
        }
        let n = pixels.len();
        if n == 0 {
            return Ok(Cycles(0));
        }
        let (lo_bank, hi_bank) = self.region_banks(region);
        self.check(lo_bank, start + n - 1)?;
        self.check(hi_bank, start + n - 1)?;
        let banks = self.banks();
        for (dst, px) in banks[lo_bank][start..start + n].iter_mut().zip(pixels) {
            *dst = px.to_words().0;
        }
        for (dst, px) in banks[hi_bank][start..start + n].iter_mut().zip(pixels) {
            *dst = px.to_words().1;
        }
        self.stats[lo_bank].word_writes += n as u64;
        self.stats[hi_bank].word_writes += n as u64;
        Ok(Cycles(n as u64)) // both banks in parallel, one cycle per pixel
    }

    /// Reads back a run of `count` result pixels — the bulk form of
    /// [`ZbtMemory::read_result_pixel`] (outbound DMA path; word-level
    /// accounting only, like the per-pixel call).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZbtOutOfRange`] when a run segment exceeds
    /// its result bank.
    pub fn read_result_run(
        &mut self,
        start: usize,
        total_pixels: usize,
        count: usize,
    ) -> EngineResult<Vec<Pixel>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let (bank_a, bank_b) = self.region_banks(ZbtRegion::Result);
        let half = total_pixels.div_ceil(2);
        let first_len = count.min(half.saturating_sub(start));
        let second_local = (start + first_len).saturating_sub(half);
        let mut out = Vec::with_capacity(count);
        let segments = [
            (bank_a, start, first_len),
            (bank_b, second_local, count - first_len),
        ];
        for (bank, local, len) in segments {
            if len == 0 {
                continue;
            }
            self.check(bank, 2 * (local + len - 1) + 1)?;
            out.extend(
                self.banks()[bank][2 * local..2 * (local + len)]
                    .chunks_exact(2)
                    .map(|pair| Pixel::from_words(pair[0], pair[1])),
            );
            self.stats[bank].word_reads += 2 * len as u64;
        }
        Ok(out)
    }

    /// Per-bank word statistics.
    #[must_use]
    pub fn stats(&self) -> &[BankStats] {
        &self.stats
    }

    /// Pixel-granularity access cycles (Table 2 "hardware accesses").
    #[must_use]
    pub const fn pixel_access_cycles(&self) -> u64 {
        self.pixel_access_cycles
    }

    /// Resets access statistics (not the stored data).
    pub fn reset_stats(&mut self) {
        self.stats.fill(BankStats::default());
        self.pixel_access_cycles = 0;
    }

    /// Adds `traffic` to the access counters, as if its accesses had been
    /// made. Touches no bank storage.
    pub fn charge(&mut self, traffic: &ZbtTraffic) {
        for (s, t) in self.stats.iter_mut().zip(&traffic.banks) {
            s.word_reads += t.word_reads;
            s.word_writes += t.word_writes;
        }
        self.pixel_access_cycles += traffic.pixel_access_cycles;
    }

    /// The access counters as they stand.
    #[must_use]
    pub fn traffic(&self) -> ZbtTraffic {
        ZbtTraffic {
            banks: self.stats.clone(),
            pixel_access_cycles: self.pixel_access_cycles,
        }
    }

    /// The bank traffic of one detailed intra or inter call over `dims`
    /// frames, in closed form from the fig. 3 bank map: what the counters hold
    /// after the call when [`ZbtMemory::reset_stats`] ran between the
    /// inbound load and the Process Unit. That is the PU's input reads
    /// (each pixel once, lo and hi word from its region's bank pair in one
    /// cycle; inter reads both input regions in that cycle), the result
    /// writes (two sequential words per pixel, the first ⌈px/2⌉ pixels in
    /// Res_block_A and the rest in Res_block_B) and the outbound unload
    /// reading those words back. One pixel access cycle per input read
    /// and per result write. The inbound load is not part of it.
    ///
    /// # Panics
    ///
    /// Panics for the segment modes, which have no detailed datapath.
    #[must_use]
    pub fn call_traffic(&self, mode: AddressingMode, dims: Dims) -> ZbtTraffic {
        let inputs = match mode {
            AddressingMode::Intra => 1,
            AddressingMode::Inter => 2,
            AddressingMode::Segment | AddressingMode::SegmentIndexed => {
                panic!("{mode} calls have no detailed datapath")
            }
        };
        let px = dims.pixel_count() as u64;
        let res_block_a = px.div_ceil(2);
        let mut banks = vec![BankStats::default(); self.bank_count];
        for &(_, (lo, hi)) in &BANK_MAP[..inputs] {
            banks[lo].word_reads = px;
            banks[hi].word_reads = px;
        }
        for (&(_, (bank, _)), pixels) in BANK_MAP[2..].iter().zip([res_block_a, px - res_block_a]) {
            banks[bank] = BankStats {
                word_reads: 2 * pixels,
                word_writes: 2 * pixels,
            };
        }
        ZbtTraffic {
            banks,
            pixel_access_cycles: 2 * px,
        }
    }

    /// The fig. 3 memory map for a frame of `dims`, as region descriptors.
    #[must_use]
    pub fn memory_map(&self, dims: Dims, strip_lines: usize) -> MemoryMap {
        let px = dims.pixel_count();
        let strip_px = strip_lines * dims.width;
        MemoryMap {
            dims,
            regions: BANK_MAP
                .iter()
                .zip([
                    (px, strip_px),
                    (px, strip_px),
                    (px.div_ceil(2) * 2, strip_px * 2),
                    ((px - px.div_ceil(2)) * 2, strip_px * 2),
                ])
                .map(
                    |(&(name, banks), (words_per_bank, strip_words))| MapRegion {
                        name,
                        banks,
                        words_per_bank,
                        strip_words,
                    },
                )
                .collect(),
        }
    }
}

/// One region of the fig. 3 memory map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapRegion {
    /// Region label.
    pub name: &'static str,
    /// Bank range `(first, last)` used by the region.
    pub banks: (usize, usize),
    /// Words occupied per bank.
    pub words_per_bank: usize,
    /// Words of one transfer strip within the region.
    pub strip_words: usize,
}

/// The fig. 3 ZBT memory distribution for one frame size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryMap {
    /// Frame dimensions the map was computed for.
    pub dims: Dims,
    /// The regions in bank order.
    pub regions: Vec<MapRegion>,
}

impl fmt::Display for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ZBT memory distribution for {} frames:", self.dims)?;
        for r in &self.regions {
            writeln!(
                f,
                "  banks {}..={}  {:<44} {:>8} words/bank ({} words/strip)",
                r.banks.0, r.banks.1, r.name, r.words_per_bank, r.strip_words
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::ImageFormat;

    fn zbt() -> ZbtMemory {
        ZbtMemory::new(&EngineConfig::prototype())
    }

    #[test]
    fn geometry() {
        let z = zbt();
        assert_eq!(z.bank_count(), 6);
        assert_eq!(z.bank_words(), 262_144);
        assert!(z.fits(ImageFormat::Cif.dims()));
        assert!(z.fits(ImageFormat::Qcif.dims()));
        assert!(!z.fits(Dims::new(1024, 1024)));
        // Exactly at capacity: 512×512 = 262 144 words per bank.
        assert!(z.fits(Dims::new(512, 512)));
        assert!(!z.fits(Dims::new(513, 512)));
        assert!(!z.fits(Dims::new(1, 262_145)));
        assert_eq!(z.region_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn geometry_and_range_checks_do_not_materialise() {
        let mut z = zbt();
        assert_eq!((z.bank_count(), z.bank_words()), (6, 262_144));
        assert!(z.fits(ImageFormat::Cif.dims()));
        assert_eq!(z.memory_map(ImageFormat::Cif.dims(), 16).regions.len(), 4);
        assert!(matches!(
            z.read_word(0, 262_144),
            Err(EngineError::ZbtOutOfRange {
                bank: 0,
                addr: 262_144,
                bank_words: 262_144
            })
        ));
        assert!(matches!(
            z.write_word(6, 0, 1),
            Err(EngineError::ZbtOutOfRange { .. })
        ));
        assert!(z
            .write_input_run(ZbtRegion::InputA, 262_143, &[Pixel::BLACK; 2])
            .is_err());
        assert!(z.read_result_run(0, 8, 0).is_ok(), "empty run");
        let traffic = z.call_traffic(AddressingMode::Inter, ImageFormat::Cif.dims());
        z.charge(&traffic);
        assert_eq!(z.traffic(), traffic);
        z.reset_stats();
        assert!(!z.is_materialised());
        assert_eq!(z.stats(), &[BankStats::default(); 6]);
    }

    #[test]
    fn fresh_memory_reads_zeros() {
        let mut z = zbt();
        assert!(!z.is_materialised());
        assert_eq!(z.read_word(5, 262_143).unwrap(), 0);
        assert!(z.is_materialised());
        let zero = Pixel::from_words(0, 0);
        assert_eq!(z.read_input_pixel(ZbtRegion::InputB, 1000).unwrap(), zero);
        assert_eq!(z.read_result_run(7, 100, 3).unwrap(), vec![zero; 3]);
        // Every access kind materialises, reads included.
        let mut w = zbt();
        w.read_input_pair(0).unwrap();
        assert!(w.is_materialised());
    }

    #[test]
    fn bulk_runs_match_per_pixel_calls() {
        // Each bulk helper must leave the exact memory contents and bank
        // statistics of its per-pixel equivalent, including the odd-sized
        // result-bank split.
        let total = 51;
        let pixels: Vec<Pixel> = (0..total)
            .map(|i| Pixel::new(i as u8, 2, 3, i as u16, 900 + i as u16))
            .collect();

        let mut a = zbt();
        for (i, px) in pixels.iter().enumerate() {
            a.write_input_pixel(ZbtRegion::InputB, i, *px).unwrap();
        }
        let mut b = zbt();
        b.write_input_run(ZbtRegion::InputB, 0, &pixels).unwrap();
        assert_eq!(a.traffic(), b.traffic());
        for z in [&mut a, &mut b] {
            for (i, px) in pixels.iter().enumerate() {
                assert_eq!(z.read_input_pixel(ZbtRegion::InputB, i).unwrap(), *px);
                z.write_result_pixel(i, total, *px).unwrap();
            }
        }
        let singles: Vec<Pixel> = (0..total)
            .map(|i| a.read_result_pixel(i, total).unwrap())
            .collect();
        assert_eq!(singles, pixels, "result contents round-trip");
        assert_eq!(b.read_result_run(0, total, total).unwrap(), pixels);
        assert_eq!(a.traffic(), b.traffic());
    }

    #[test]
    fn bulk_runs_reject_out_of_range_and_result_region() {
        let mut z = zbt();
        let px = vec![Pixel::BLACK; 4];
        assert!(z.write_input_run(ZbtRegion::Result, 0, &px).is_err());
        let far = z.bank_words() - 2;
        assert!(z.write_input_run(ZbtRegion::InputA, far, &px).is_err());
        assert!(z.read_result_run(far, 2 * z.bank_words(), 4).is_err());
        // Empty runs are free no-ops.
        assert!(z.write_input_run(ZbtRegion::InputA, 0, &[]).is_ok());
        assert_eq!(z.read_result_run(0, 8, 0).unwrap(), vec![]);
        assert_eq!(z.traffic(), zbt().traffic());
    }

    #[test]
    fn call_traffic_is_the_per_pixel_access_sequence() {
        // The closed form against the per-pixel accessors a stepped call
        // and its unload issue, on odd and even pixel counts (the
        // Res_block_A/B split is ceil(px/2)), for both input counts.
        for (mode, total) in [
            (AddressingMode::Intra, 1),
            (AddressingMode::Intra, 35),
            (AddressingMode::Inter, 2),
            (AddressingMode::Inter, 51),
        ] {
            let mut z = zbt();
            for i in 0..total {
                if mode == AddressingMode::Intra {
                    z.read_input_pixel(ZbtRegion::InputA, i).unwrap();
                } else {
                    z.read_input_pair(i).unwrap();
                }
                z.write_result_pixel(i, total, Pixel::BLACK).unwrap();
            }
            z.read_result_run(0, total, total).unwrap();
            let dims = Dims::new(total, 1);
            assert_eq!(z.traffic(), z.call_traffic(mode, dims), "{mode} {total}");
        }
        // CIF intra: the PU reads bank 0/1 once per pixel; each result
        // bank takes half the image as two words, written and read back.
        let cif = zbt().call_traffic(AddressingMode::Intra, ImageFormat::Cif.dims());
        let totals: Vec<u64> = cif.banks.iter().map(BankStats::total).collect();
        assert_eq!(totals, [101_376, 101_376, 0, 0, 202_752, 202_752]);
        assert_eq!(cif.pixel_access_cycles, 2 * 101_376);
    }

    #[test]
    fn input_pixel_roundtrip_one_cycle() {
        let mut z = zbt();
        let px = Pixel::new(9, 8, 7, 600, 700);
        let c = z.write_input_pixel(ZbtRegion::InputA, 5, px).unwrap();
        assert_eq!(c, Cycles(1));
        assert_eq!(z.read_input_pixel(ZbtRegion::InputA, 5).unwrap(), px);
        // Banks 0 and 1 each saw one write and one read.
        assert_eq!(z.stats()[0].word_writes, 1);
        assert_eq!(z.stats()[1].word_reads, 1);
        assert_eq!(z.stats()[2].total(), 0);
    }

    #[test]
    fn input_regions_are_disjoint() {
        let mut z = zbt();
        let pa = Pixel::from_luma(1);
        let pb = Pixel::from_luma(2);
        z.write_input_pixel(ZbtRegion::InputA, 0, pa).unwrap();
        z.write_input_pixel(ZbtRegion::InputB, 0, pb).unwrap();
        assert_eq!(z.read_input_pixel(ZbtRegion::InputA, 0).unwrap(), pa);
        assert_eq!(z.read_input_pixel(ZbtRegion::InputB, 0).unwrap(), pb);
    }

    #[test]
    fn input_pair_single_cycle() {
        let mut z = zbt();
        z.write_input_pixel(ZbtRegion::InputA, 3, Pixel::from_luma(10))
            .unwrap();
        z.write_input_pixel(ZbtRegion::InputB, 3, Pixel::from_luma(20))
            .unwrap();
        z.reset_stats();
        let (a, b) = z.read_input_pair(3).unwrap();
        assert_eq!((a.y, b.y), (10, 20));
        assert_eq!(z.pixel_access_cycles(), 1, "pair read is one cycle");
    }

    #[test]
    fn result_pixel_sequential_two_cycles() {
        let mut z = zbt();
        let px = Pixel::new(1, 2, 3, 4, 5);
        let c = z.write_result_pixel(0, 100, px).unwrap();
        assert_eq!(c, Cycles(2));
        assert_eq!(z.read_result_pixel(0, 100).unwrap(), px);
        // Both words in bank 4, sequential addresses.
        assert_eq!(z.stats()[4].word_writes, 2);
        assert_eq!(z.stats()[5].word_writes, 0);
    }

    #[test]
    fn result_bank_switch_at_half() {
        let mut z = zbt();
        let total = 100;
        z.write_result_pixel(49, total, Pixel::from_luma(1))
            .unwrap();
        z.write_result_pixel(50, total, Pixel::from_luma(2))
            .unwrap();
        assert_eq!(z.stats()[4].word_writes, 2, "pixel 49 in Res_block_A");
        assert_eq!(z.stats()[5].word_writes, 2, "pixel 50 in Res_block_B");
        assert_eq!(z.read_result_pixel(49, total).unwrap().y, 1);
        assert_eq!(z.read_result_pixel(50, total).unwrap().y, 2);
    }

    #[test]
    fn whole_cif_result_roundtrip_fits() {
        let mut z = zbt();
        let total = ImageFormat::Cif.dims().pixel_count();
        // Spot-check first, middle boundary, and last pixels.
        for idx in [0, total / 2 - 1, total / 2, total - 1] {
            let px = Pixel::from_luma((idx % 251) as u8).with_aux(idx as u16);
            z.write_result_pixel(idx, total, px).unwrap();
            assert_eq!(z.read_result_pixel(idx, total).unwrap(), px, "at {idx}");
        }
    }

    #[test]
    fn out_of_range_errors() {
        let mut z = zbt();
        assert!(matches!(
            z.write_word(9, 0, 0),
            Err(EngineError::ZbtOutOfRange { .. })
        ));
        assert!(z.read_word(0, 262_144).is_err());
        assert!(z
            .write_input_pixel(ZbtRegion::InputA, usize::MAX, Pixel::BLACK)
            .is_err());
    }

    #[test]
    fn result_region_guards() {
        let mut z = zbt();
        assert!(z
            .write_input_pixel(ZbtRegion::Result, 0, Pixel::BLACK)
            .is_err());
        assert!(z.read_input_pixel(ZbtRegion::Result, 0).is_err());
    }

    #[test]
    fn pixel_access_cycles_match_table2_convention() {
        let mut z = zbt();
        let n = 10;
        for i in 0..n {
            z.write_input_pixel(ZbtRegion::InputA, i, Pixel::from_luma(i as u8))
                .unwrap();
        }
        z.reset_stats();
        // One intra pass: read each pixel once, write each result once.
        for i in 0..n {
            let p = z.read_input_pixel(ZbtRegion::InputA, i).unwrap();
            z.write_result_pixel(i, n, p).unwrap();
        }
        assert_eq!(z.pixel_access_cycles(), 2 * n as u64);
    }

    #[test]
    fn memory_map_cif() {
        let z = zbt();
        let map = z.memory_map(ImageFormat::Cif.dims(), 16);
        assert_eq!(map.regions.len(), 4);
        assert_eq!(map.regions[0].words_per_bank, 101_376);
        assert_eq!(map.regions[2].words_per_bank, 101_376); // half image × 2 words
        let text = map.to_string();
        assert!(text.contains("Res_block_A"));
        assert!(text.contains("input_B"));
    }

    #[test]
    fn reset_stats_clears() {
        let mut z = zbt();
        z.write_input_pixel(ZbtRegion::InputA, 0, Pixel::BLACK)
            .unwrap();
        z.reset_stats();
        assert_eq!(z.stats()[0].total(), 0);
        assert_eq!(z.pixel_access_cycles(), 0);
    }

    #[test]
    fn region_display() {
        assert_eq!(ZbtRegion::InputA.to_string(), "input_A");
        assert_eq!(ZbtRegion::Result.to_string(), "result");
    }
}
