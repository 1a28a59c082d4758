//! The 64-bit pixel type of the AddressLib.
//!
//! The paper stores each pixel as 64 bits: 8 bits for each of the `Y`, `U`
//! and `V` video channels plus 16 bits for each of the `Alpha` and `Aux`
//! channels (§3.1: *"the pixel size is 64 bits (i.e. 8 bits per Y,U,V
//! channels and 16 bits per Alfa and Aux channels)"*). Because the on-board
//! ZBT memory is 32 bits wide, a pixel occupies exactly two 32-bit words:
//! the *low word* carries `Y`, `U`, `V` (and 8 bits of padding), the *high
//! word* carries `Alpha` and `Aux`. The AddressEngine stores both words at
//! the same address of two different ZBT banks so that a whole pixel is
//! fetched in a single memory cycle.
//!
//! # Examples
//!
//! ```
//! use vip_core::pixel::Pixel;
//!
//! let p = Pixel::from_yuv(16, 128, 128).with_alpha(7).with_aux(42);
//! assert_eq!(p.y, 16);
//! let (lo, hi) = p.to_words();
//! assert_eq!(Pixel::from_words(lo, hi), p);
//! ```

use core::fmt;

/// One 64-bit AddressLib pixel: three 8-bit video channels plus two 16-bit
/// side channels.
///
/// `alpha` typically carries segment labels or masks during video object
/// segmentation; `aux` carries per-pixel scratch data (e.g. geodesic
/// distance, gradient magnitude).
///
/// # Examples
///
/// ```
/// use vip_core::pixel::Pixel;
///
/// let grey = Pixel::from_luma(200);
/// assert_eq!((grey.u, grey.v), (128, 128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Pixel {
    /// Luminance channel (8 bit).
    pub y: u8,
    /// First chrominance channel (8 bit).
    pub u: u8,
    /// Second chrominance channel (8 bit).
    pub v: u8,
    /// 16-bit alpha/label channel ("Alfa" in the paper).
    pub alpha: u16,
    /// 16-bit auxiliary channel.
    pub aux: u16,
}

impl Pixel {
    /// A black pixel with neutral chroma and cleared side channels.
    pub const BLACK: Pixel = Pixel {
        y: 0,
        u: 128,
        v: 128,
        alpha: 0,
        aux: 0,
    };

    /// A white pixel with neutral chroma and cleared side channels.
    pub const WHITE: Pixel = Pixel {
        y: 255,
        u: 128,
        v: 128,
        alpha: 0,
        aux: 0,
    };

    /// Creates a pixel from explicit values of all five channels.
    ///
    /// # Examples
    ///
    /// ```
    /// use vip_core::pixel::Pixel;
    /// let p = Pixel::new(1, 2, 3, 4, 5);
    /// assert_eq!(p.aux, 5);
    /// ```
    #[must_use]
    pub const fn new(y: u8, u: u8, v: u8, alpha: u16, aux: u16) -> Self {
        Pixel {
            y,
            u,
            v,
            alpha,
            aux,
        }
    }

    /// Creates a pixel from the three video channels with zeroed side
    /// channels.
    #[must_use]
    pub const fn from_yuv(y: u8, u: u8, v: u8) -> Self {
        Pixel::new(y, u, v, 0, 0)
    }

    /// Creates a grey pixel: luminance `y`, neutral chroma (128).
    #[must_use]
    pub const fn from_luma(y: u8) -> Self {
        Pixel::new(y, 128, 128, 0, 0)
    }

    /// Returns a copy with the alpha channel replaced.
    #[must_use]
    pub const fn with_alpha(mut self, alpha: u16) -> Self {
        self.alpha = alpha;
        self
    }

    /// Returns a copy with the aux channel replaced.
    #[must_use]
    pub const fn with_aux(mut self, aux: u16) -> Self {
        self.aux = aux;
        self
    }

    /// Packs the pixel into its two 32-bit ZBT words `(lo, hi)`.
    ///
    /// Layout (little-endian within the word):
    /// `lo = Y | U<<8 | V<<16`, `hi = alpha | aux<<16`. The byte at
    /// `lo[31..24]` is padding and always zero, mirroring the unused byte of
    /// the 32-bit ZBT word in the hardware.
    #[must_use]
    pub const fn to_words(self) -> (u32, u32) {
        let lo = self.y as u32 | (self.u as u32) << 8 | (self.v as u32) << 16;
        let hi = self.alpha as u32 | (self.aux as u32) << 16;
        (lo, hi)
    }

    /// Reconstructs a pixel from its two 32-bit ZBT words.
    ///
    /// The padding byte of `lo` is ignored, as the hardware does.
    #[must_use]
    pub const fn from_words(lo: u32, hi: u32) -> Self {
        Pixel {
            y: (lo & 0xff) as u8,
            u: ((lo >> 8) & 0xff) as u8,
            v: ((lo >> 16) & 0xff) as u8,
            alpha: (hi & 0xffff) as u16,
            aux: (hi >> 16) as u16,
        }
    }

    /// Packs the pixel into a single 64-bit value (`hi:lo`).
    #[must_use]
    pub const fn to_bits(self) -> u64 {
        let (lo, hi) = self.to_words();
        (hi as u64) << 32 | lo as u64
    }

    /// Reconstructs a pixel from a packed 64-bit value produced by
    /// [`Pixel::to_bits`].
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        Pixel::from_words(bits as u32, (bits >> 32) as u32)
    }

    /// Reads one channel as a widened `u16` (video channels zero-extend).
    #[must_use]
    pub const fn channel(&self, channel: Channel) -> u16 {
        match channel {
            Channel::Y => self.y as u16,
            Channel::U => self.u as u16,
            Channel::V => self.v as u16,
            Channel::Alpha => self.alpha,
            Channel::Aux => self.aux,
        }
    }

    /// Writes one channel from a `u16` (video channels saturate to 8 bits).
    pub fn set_channel(&mut self, channel: Channel, value: u16) {
        match channel {
            Channel::Y => self.y = value.min(255) as u8,
            Channel::U => self.u = value.min(255) as u8,
            Channel::V => self.v = value.min(255) as u8,
            Channel::Alpha => self.alpha = value,
            Channel::Aux => self.aux = value,
        }
    }

    /// Copies the channels selected by `set` from `src` into `self`,
    /// leaving the others untouched.
    ///
    /// This models an AddressLib call writing only its output channels.
    /// It is one mask blend over the packed [`Pixel::to_bits`] form: every
    /// channel keeps its width, so no value needs saturating.
    #[inline]
    pub fn merge_channels(&mut self, src: Pixel, set: ChannelSet) {
        let mask = set.bit_mask();
        *self = Pixel::from_bits(self.to_bits() & !mask | src.to_bits() & mask);
    }
}

impl fmt::Display for Pixel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Y{} U{} V{} A{} X{}",
            self.y, self.u, self.v, self.alpha, self.aux
        )
    }
}

impl From<u64> for Pixel {
    fn from(bits: u64) -> Self {
        Pixel::from_bits(bits)
    }
}

impl From<Pixel> for u64 {
    fn from(p: Pixel) -> u64 {
        p.to_bits()
    }
}

/// One of the five pixel channels.
///
/// # Examples
///
/// ```
/// use vip_core::pixel::{Channel, Pixel};
/// let p = Pixel::from_yuv(9, 8, 7);
/// assert_eq!(p.channel(Channel::V), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Channel {
    /// Luminance.
    Y,
    /// First chrominance.
    U,
    /// Second chrominance.
    V,
    /// 16-bit label/mask channel.
    Alpha,
    /// 16-bit auxiliary channel.
    Aux,
}

impl Channel {
    /// All channels in canonical order.
    pub const ALL: [Channel; 5] = [
        Channel::Y,
        Channel::U,
        Channel::V,
        Channel::Alpha,
        Channel::Aux,
    ];

    /// Channel width in bits (8 for video channels, 16 for side channels).
    #[must_use]
    pub const fn bits(self) -> u32 {
        match self {
            Channel::Y | Channel::U | Channel::V => 8,
            Channel::Alpha | Channel::Aux => 16,
        }
    }

    /// Index of the 32-bit ZBT word that holds this channel: 0 for the video
    /// word, 1 for the side-channel word.
    #[must_use]
    pub const fn word_index(self) -> usize {
        match self {
            Channel::Y | Channel::U | Channel::V => 0,
            Channel::Alpha | Channel::Aux => 1,
        }
    }

    /// The channel's bits in the packed [`Pixel::to_bits`] form.
    const fn bit_mask(self) -> u64 {
        match self {
            Channel::Y => 0xff,
            Channel::U => 0xff << 8,
            Channel::V => 0xff << 16,
            Channel::Alpha => 0xffff << 32,
            Channel::Aux => 0xffff << 48,
        }
    }

    fn mask_bit(self) -> u8 {
        match self {
            Channel::Y => 1,
            Channel::U => 1 << 1,
            Channel::V => 1 << 2,
            Channel::Alpha => 1 << 3,
            Channel::Aux => 1 << 4,
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Channel::Y => "Y",
            Channel::U => "U",
            Channel::V => "V",
            Channel::Alpha => "Alpha",
            Channel::Aux => "Aux",
        };
        f.write_str(s)
    }
}

/// A set of pixel channels, used to describe the input and output channels
/// of an AddressLib call (Table 2 of the paper distinguishes e.g. `Y` from
/// `Y,U,V` calls).
///
/// # Examples
///
/// ```
/// use vip_core::pixel::{Channel, ChannelSet};
///
/// let yuv = ChannelSet::YUV;
/// assert!(yuv.contains(Channel::U));
/// assert!(!yuv.contains(Channel::Alpha));
/// assert_eq!(yuv.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ChannelSet(u8);

impl ChannelSet {
    /// The empty channel set.
    pub const EMPTY: ChannelSet = ChannelSet(0);
    /// Only the luminance channel.
    pub const Y: ChannelSet = ChannelSet(1);
    /// The three video channels.
    pub const YUV: ChannelSet = ChannelSet(0b111);
    /// All five channels.
    pub const ALL: ChannelSet = ChannelSet(0b1_1111);
    /// Only the alpha channel.
    pub const ALPHA: ChannelSet = ChannelSet(0b1000);
    /// Only the aux channel.
    pub const AUX: ChannelSet = ChannelSet(0b1_0000);

    /// Creates an empty set.
    #[must_use]
    pub const fn new() -> Self {
        ChannelSet(0)
    }

    /// Returns a copy of the set with `channel` inserted.
    #[must_use]
    pub fn with(mut self, channel: Channel) -> Self {
        self.insert(channel);
        self
    }

    /// Inserts a channel into the set.
    pub fn insert(&mut self, channel: Channel) {
        self.0 |= channel.mask_bit();
    }

    /// Removes a channel from the set.
    pub fn remove(&mut self, channel: Channel) {
        self.0 &= !channel.mask_bit();
    }

    /// Whether the set contains `channel`.
    #[must_use]
    pub fn contains(self, channel: Channel) -> bool {
        self.0 & channel.mask_bit() != 0
    }

    /// Number of channels in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two sets.
    #[must_use]
    pub fn union(self, other: ChannelSet) -> ChannelSet {
        ChannelSet(self.0 | other.0)
    }

    /// Iterates over the channels of the set in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Channel> {
        Channel::ALL.into_iter().filter(move |c| self.contains(*c))
    }

    /// The bits of the set's channels in the packed [`Pixel::to_bits`]
    /// form.
    #[inline]
    fn bit_mask(self) -> u64 {
        self.iter().fold(0, |mask, c| mask | c.bit_mask())
    }
}

impl FromIterator<Channel> for ChannelSet {
    fn from_iter<I: IntoIterator<Item = Channel>>(iter: I) -> Self {
        let mut set = ChannelSet::new();
        for c in iter {
            set.insert(c);
        }
        set
    }
}

impl Extend<Channel> for ChannelSet {
    fn extend<I: IntoIterator<Item = Channel>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl fmt::Display for ChannelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("∅");
        }
        let mut first = true;
        for c in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_preserves_all_channels() {
        let p = Pixel::new(0xab, 0xcd, 0xef, 0x1234, 0x5678);
        let (lo, hi) = p.to_words();
        assert_eq!(lo, 0x00ef_cdab);
        assert_eq!(hi, 0x5678_1234);
        assert_eq!(Pixel::from_words(lo, hi), p);
    }

    #[test]
    fn bits_roundtrip() {
        let p = Pixel::new(1, 2, 3, 4, 5);
        assert_eq!(Pixel::from_bits(p.to_bits()), p);
        assert_eq!(u64::from(p), p.to_bits());
        assert_eq!(Pixel::from(p.to_bits()), p);
    }

    #[test]
    fn padding_byte_is_zero_and_ignored() {
        let p = Pixel::from_yuv(1, 2, 3);
        let (lo, _) = p.to_words();
        assert_eq!(lo >> 24, 0, "padding byte must be zero");
        // A dirty padding byte must not leak into the pixel.
        let dirty = lo | 0xff00_0000;
        assert_eq!(Pixel::from_words(dirty, 0), p);
    }

    #[test]
    fn channel_get_set_roundtrip() {
        let mut p = Pixel::default();
        for c in Channel::ALL {
            p.set_channel(c, 100);
            assert_eq!(p.channel(c), 100);
        }
    }

    #[test]
    fn video_channels_saturate_on_set() {
        let mut p = Pixel::default();
        p.set_channel(Channel::Y, 1000);
        assert_eq!(p.y, 255);
        p.set_channel(Channel::Alpha, 1000);
        assert_eq!(p.alpha, 1000);
    }

    #[test]
    fn channel_bits_and_words() {
        assert_eq!(Channel::Y.bits(), 8);
        assert_eq!(Channel::Aux.bits(), 16);
        assert_eq!(Channel::V.word_index(), 0);
        assert_eq!(Channel::Alpha.word_index(), 1);
    }

    #[test]
    fn channel_set_basics() {
        let mut s = ChannelSet::new();
        assert!(s.is_empty());
        s.insert(Channel::Y);
        s.insert(Channel::Aux);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Channel::Y));
        assert!(!s.contains(Channel::U));
        s.remove(Channel::Y);
        assert!(!s.contains(Channel::Y));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn channel_set_from_iterator_and_union() {
        let s: ChannelSet = [Channel::Y, Channel::U].into_iter().collect();
        assert_eq!(s.len(), 2);
        let t = s.union(ChannelSet::ALPHA);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn channel_set_display() {
        assert_eq!(ChannelSet::YUV.to_string(), "Y,U,V");
        assert_eq!(ChannelSet::EMPTY.to_string(), "∅");
    }

    #[test]
    fn merge_channels_only_touches_selected() {
        let mut dst = Pixel::new(1, 2, 3, 4, 5);
        let src = Pixel::new(10, 20, 30, 40, 50);
        dst.merge_channels(src, ChannelSet::Y.with(Channel::Alpha));
        assert_eq!(dst, Pixel::new(10, 2, 3, 40, 5));
    }

    /// Reference model of the mask blend: a per-channel `set_channel`
    /// loop.
    fn merge_reference(mut dst: Pixel, src: Pixel, set: ChannelSet) -> Pixel {
        for channel in set.iter() {
            dst.set_channel(channel, src.channel(channel));
        }
        dst
    }

    #[test]
    fn merge_channels_matches_the_per_channel_loop() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut seeded = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Pixel::from_bits(state)
        };
        let mut pixels = vec![
            Pixel::default(),
            Pixel::new(255, 255, 255, u16::MAX, u16::MAX),
            Pixel::new(0, 0, 0, u16::MAX, 0),
            Pixel::new(0, 0, 0, 0, u16::MAX),
            Pixel::new(255, 0, 255, 0x8000, 0x00ff),
        ];
        pixels.extend((0..24).map(|_| seeded()));
        for bits in 0..32u8 {
            let set = ChannelSet(bits);
            for &dst in &pixels {
                for &src in &pixels {
                    let mut merged = dst;
                    merged.merge_channels(src, set);
                    assert_eq!(
                        merged,
                        merge_reference(dst, src, set),
                        "{set} {dst} <- {src}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_formats() {
        let p = Pixel::new(1, 2, 3, 4, 5);
        assert_eq!(p.to_string(), "Y1 U2 V3 A4 X5");
        assert_eq!(Channel::Alpha.to_string(), "Alpha");
    }
}
