//! Succinct index levels: the header keys of an ordering as a presence
//! bitmap with a rank directory (or one Elias–Fano window), its vector
//! keys, window by window, as Elias–Fano codes, and every cumulative
//! offsets column as one Elias–Fano window of its values — each where that
//! is smaller than the alternative.
//!
//! Both are bit streams in the [`crate::packed`] framing — a column of
//! width 1, one value a bit, the little-endian words followed by a zero
//! word — with a **rank directory** beside them: one sample per
//! [`RANK_BLOCK`] bits after the first block, the number of set bits
//! before the block, packed at the bit length of the stream's length. A
//! rank is a sample and at most eight word popcounts; a select gallops
//! over the samples from where evenly spread bits would put its target,
//! then scans one block, and picks the bit in a word without a branch.
//!
//! **Headers.** Header `h` of an ordering is the `h`-th set bit of a
//! bitmap over the id space, one bit per id up to the largest key (whose
//! bit is the last): finding the window of `k1` is [`BitmapView::rank`],
//! and [`BitmapView::keys`] yields the keys in order. Where the keys are
//! sparse in the id space — a few properties among many terms, or ids
//! that reach 2^31 — one Elias–Fano window of them is smaller, so a
//! [`HeaderColumn`] holds either.
//!
//! **Vector keys.** A [`KeyColumn`] is either a packed column or an
//! [`EfColumn`]. Window `h` of `n` keys stores its first key in a base
//! column (packed at the width of the largest first key) and, when
//! `n > 1`, its other `m = n − 1` keys in a bit stream addressed by a
//! packed column of bit offsets: a 5-bit `l`, then the `m` low parts of
//! `l` bits each, then the high parts in unary. Key `j` of the `m` is
//! coded as `w = k − first − 1`, below `u = last − first`; `l` is
//! `⌊log2(u / m)⌋`, its low part `w mod 2^l`, and its high part `w >> l`
//! is a one at bit `(w >> l) + j` of the window's high region — the
//! window's last bit is the last key's one. A search finds the bucket of
//! its target's high part with two selects on the high region and
//! binary-searches the bucket's low parts; a seek is that search
//! (Elias–Fano's NextGEQ) that first reads on from its start position and
//! searches only for a far target, and iteration decodes the high region
//! word by word.
//!
//! **Offsets.** A cumulative offsets column — an ordering's offsets, an
//! arena's run ends, an Elias–Fano column's bit offsets, each `n` values
//! that never descend, the last the largest — is an [`OffsetsColumn`]:
//! packed at the width of its last value, or one Elias–Fano window of all
//! its values ([`EfOffsets`]): a 5-bit `l = ⌊log2(last / n)⌋`, the high
//! region (value `i`'s one at bit `(v >> l) + i`), then the low parts.
//! Values may repeat — a bit-offset column's do, wherever a window holds
//! one key — as two adjacent ones. Beside the stream, a select directory
//! holds the position of every 64th value's one ([`SELECT_STEP`]). A
//! window's bounds, values `h` and `h + 1`, are one select — a sample and
//! a scan from it, towards the next sample — and a scan to the next set
//! bit ([`OffsetsView::pair`]). Its size follows from `n` and the last
//! value alone (`OffsetsSize`), which the builders know before they write
//! a value.
//!
//! A writer chooses, per ordering, arena and column, the smaller encoding
//! of its header keys, of its vector keys and of each offsets column from
//! counts alone (`HeaderSize`, `KeySize`, `OffsetsSize`), so the bulk
//! builder sizes each exactly before it writes a key.
//!
//! Reads never panic and never scan past their window: a mapped column
//! may be corrupt, and an offset past the stream, an `l` whose low parts
//! overrun the window, a high region that never reaches its `m`-th one or
//! a rank sample that disagrees with its bits all give a short window or
//! an absent header; an offsets window that cannot be read gives the empty
//! window. In-memory columns are built canonical, and the eager loader
//! checks each column it reads against what it decodes to, decoding each
//! window once ([`HeaderColumn::check`], [`KeyColumn::check`],
//! [`OffsetsView::check`]): an Elias–Fano window is canonical when it
//! takes the bits and the `l` its values make.

use crate::packed::{self, bytes_for, width_of, Bytes, PackedColumn, PackedView};
use hex_dict::Id;
use std::ops::Range;

/// Bits per rank-directory block.
pub const RANK_BLOCK: usize = 512;

/// Bits of an Elias–Fano window's `l` field.
pub(crate) const L_BITS: usize = 5;

/// Word `i` of a bit stream's image; 0 past its end.
#[inline(always)]
fn word(bytes: &[u8], i: usize) -> u64 {
    match bytes.get(i * 8..i * 8 + 8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("8 bytes")),
        None => 0,
    }
}

/// The `width`-bit value (at most 32 bits) at bit `at`: one unaligned
/// 8-byte load, a shift and a mask. Every value a stream holds lies in the
/// 8 bytes from its first byte, the trailing zero word included; a read
/// whose 8 bytes leave the image reads 0.
#[inline(always)]
fn bits_at(bytes: &[u8], at: usize, width: u32) -> u32 {
    let raw = bytes
        .get(at / 8..at / 8 + 8)
        .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
    ((raw >> (at % 8)) & ((1u64 << width) - 1)) as u32
}

/// The mask of the low `bits` bits, `bits` below 64.
#[inline(always)]
fn low_mask(bits: usize) -> u64 {
    (1u64 << bits) - 1
}

/// The position of the `k`-th (from 0) set bit of `x`, which has more
/// than `k` (64 when it has fewer), with no branch: the bytes' running
/// counts by one multiplication, the byte holding the bit by comparing
/// them all with `k` at once, the bit in that byte by a table.
#[inline]
fn select_in_word(x: u64, k: u32) -> u32 {
    const L8: u64 = 0x0101_0101_0101_0101;
    const H8: u64 = 0x8080_8080_8080_8080;
    let mut s = x - ((x >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte `i` of `sums`: the set bits in bytes `0..=i`.
    let sums = s.wrapping_mul(L8);
    let k8 = u64::from(k.min(64)) * L8;
    // Byte `i`'s top bit: at most `k` set bits in bytes `0..=i`.
    let below = ((k8 | H8) - sums) & H8;
    let byte = ((below >> 7).wrapping_mul(L8) >> 56) as u32;
    if byte >= 8 {
        return 64;
    }
    let before = if byte == 0 { 0 } else { (sums >> (8 * byte - 8)) & 0xFF } as u32;
    8 * byte
        + SELECT_IN_BYTE[(((x >> (8 * byte)) & 0xFF) as usize) << 3 | (k - before) as usize & 7]
            as u32
}

/// `SELECT_IN_BYTE[b << 3 | k]`: the position of the `k`-th set bit of
/// the byte `b`, 8 when it has no more than `k`.
static SELECT_IN_BYTE: [u8; 2048] = {
    let mut table = [8u8; 2048];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut k) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                table[b << 3 | k] = bit as u8;
                k += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

// ---------------------------------------------------------------------
// Bit streams with a rank directory.
// ---------------------------------------------------------------------

/// A borrowed bit stream — a packed column of width 1, or of width 0 when
/// empty — with its rank directory. `Copy`.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitsView<'a> {
    /// The bits, one a value.
    pub bits: PackedView<'a>,
    /// Set bits before each [`RANK_BLOCK`]-bit block after the first.
    pub ranks: PackedView<'a>,
}

impl<'a> BitsView<'a> {
    /// Number of bits.
    #[inline]
    pub fn len(self) -> usize {
        self.bits.len()
    }

    /// True when the stream has no bits.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.bits.is_empty()
    }

    #[inline(always)]
    fn bytes(self) -> &'a [u8] {
        self.bits.bytes()
    }

    /// Bit `i`; false past the stream.
    #[inline]
    fn get(self, i: usize) -> bool {
        i < self.len() && word(self.bytes(), i / 64) >> (i % 64) & 1 == 1
    }

    /// Set bits before block `block`: none before the first, the
    /// directory's sample `block − 1` before any other.
    #[inline(always)]
    fn ones_before(self, block: usize) -> usize {
        match block.checked_sub(1) {
            Some(sample) => self.ranks.get(sample) as usize,
            None => 0,
        }
    }

    /// Set bits before bit `g`, from the directory: its block's sample
    /// plus at most eight word popcounts.
    #[inline]
    pub fn rank1(self, g: usize) -> usize {
        let block = g / RANK_BLOCK;
        let bytes = self.bytes();
        let mut ones = self.ones_before(block);
        let last = g / 64;
        for w in block * (RANK_BLOCK / 64)..last {
            ones += word(bytes, w).count_ones() as usize;
        }
        if g % 64 != 0 {
            ones += (word(bytes, last) & low_mask(g % 64)).count_ones() as usize;
        }
        ones
    }

    /// The position of the `r`-th (from 0) bit of `from..end` that is
    /// `bit`, or `None` when that range holds no more than `r`, looked for
    /// first near bit `guess`. The directory picks the block — a gallop
    /// over its samples from `guess`'s block, then a binary search of the
    /// bracket, so a good guess costs a sample or two and a bad one
    /// `O(log)` of them — and only that block is scanned: a sample that
    /// disagrees with the bits gives a wrong position or `None`, never a
    /// longer scan.
    fn select(self, from: usize, end: usize, r: usize, bit: bool, guess: usize) -> Option<usize> {
        let end = end.min(self.len());
        if from >= end {
            return None;
        }
        if end - from <= RANK_BLOCK {
            // A range no longer than a block is scanned directly.
            return self.scan(from, end, r, bit);
        }
        let base = self.rank1(from);
        // Bits equal to `bit` in `from..s` for the start `s` of `block`:
        // none for the block `from` lies in.
        let hits_to = |block: usize| {
            let s = block * RANK_BLOCK;
            if s <= from {
                return 0;
            }
            let ones = self.ones_before(block).saturating_sub(base);
            if bit {
                ones
            } else {
                (s - from).saturating_sub(ones)
            }
        };
        // The last block whose start has at most `r` hits before it: the
        // first block always has none.
        let (first, last) = (from / RANK_BLOCK, (end - 1) / RANK_BLOCK);
        let at = (guess / RANK_BLOCK).clamp(first, last);
        let (mut lo, mut hi, mut step) = (first, last, 1);
        if hits_to(at) <= r {
            lo = at;
            while lo < last {
                let next = (lo + step).min(last);
                if hits_to(next) > r {
                    hi = next - 1;
                    break;
                }
                (lo, step) = (next, step * 2);
            }
        } else {
            hi = at - 1;
            while hi > first {
                let next = hi.saturating_sub(step).max(first);
                if hits_to(next) <= r {
                    lo = next;
                    break;
                }
                (hi, step) = (next - 1, step * 2);
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if hits_to(mid) <= r {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let (s, need) =
            if lo * RANK_BLOCK <= from { (from, r) } else { (lo * RANK_BLOCK, r - hits_to(lo)) };
        self.scan(s, ((lo + 1) * RANK_BLOCK).min(end), need, bit)
    }

    /// The position of the `need`-th (from 0) bit of `s..stop` that is
    /// `bit`, word by word, or `None` when the range holds no more than
    /// `need`.
    fn scan(self, mut s: usize, stop: usize, mut need: usize, bit: bool) -> Option<usize> {
        let bytes = self.bytes();
        let flip = if bit { 0 } else { u64::MAX };
        while s < stop {
            let valid = (64 - s % 64).min(stop - s);
            let hits = ((word(bytes, s / 64) >> (s % 64)) ^ flip) & low_mask_or_all(valid);
            let count = hits.count_ones() as usize;
            if need < count {
                return Some(s + select_in_word(hits, need as u32) as usize);
            }
            need -= count;
            s += valid;
        }
        None
    }

    /// The first clear bit of `from..end`, or `end`.
    fn next_zero(self, from: usize, end: usize) -> usize {
        let bytes = self.bytes();
        let mut s = from;
        while s < end {
            let valid = (64 - s % 64).min(end - s);
            let clear = !(word(bytes, s / 64) >> (s % 64)) & low_mask_or_all(valid);
            if clear != 0 {
                return s + clear.trailing_zeros() as usize;
            }
            s += valid;
        }
        end
    }

    /// The first set bit of `from..end`, or `None`.
    #[inline]
    fn next_one(self, from: usize, end: usize) -> Option<usize> {
        let bytes = self.bytes();
        let mut s = from;
        while s < end {
            let valid = (64 - s % 64).min(end - s);
            let set = (word(bytes, s / 64) >> (s % 64)) & low_mask_or_all(valid);
            if set != 0 {
                return Some(s + set.trailing_zeros() as usize);
            }
            s += valid;
        }
        None
    }

    /// Set bits in `from..to`: a scan when the range is no longer than a
    /// block, two ranks otherwise.
    #[inline]
    fn ones_between(self, from: usize, to: usize) -> usize {
        if to <= from {
            return 0;
        }
        if to - from > RANK_BLOCK {
            return self.rank1(to).saturating_sub(self.rank1(from));
        }
        let bytes = self.bytes();
        let (mut s, mut ones) = (from, 0);
        while s < to {
            let valid = (64 - s % 64).min(to - s);
            ones += ((word(bytes, s / 64) >> (s % 64)) & low_mask_or_all(valid)).count_ones();
            s += valid;
        }
        ones as usize
    }

    /// Checks that the rank directory is the one of these bits: one
    /// sample per block after the first, at the bit length of the
    /// stream's length, each the set bits before its block, and no bit set
    /// past the samples. Counts every word once and decodes nothing.
    pub(crate) fn check_ranks(self, what: &str) -> Result<(), String> {
        let (len, ranks) = (self.len(), self.ranks);
        let disagrees = || format!("{what}'s rank directory disagrees with its bits");
        if ranks.len() != samples(len)
            || ranks.width() != sample_width(len)
            || ranks.validate_tail().is_err()
        {
            return Err(disagrees());
        }
        let (bytes, mut ones) = (self.bytes(), 0usize);
        for block in 1..=ranks.len() {
            let words = (block - 1) * (RANK_BLOCK / 64)..block * (RANK_BLOCK / 64);
            ones += words.map(|w| word(bytes, w).count_ones() as usize).sum::<usize>();
            if ranks.get(block - 1) as usize != ones {
                return Err(disagrees());
            }
        }
        Ok(())
    }
}

/// The mask of the low `bits` bits, `bits` at most 64.
#[inline(always)]
fn low_mask_or_all(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        low_mask(bits)
    }
}

/// A bit stream with its directory — a key column's rank samples, an
/// offsets window's select samples — appended in order into room sized
/// exactly up front, or a snapshot's image, read or a window of a mapped
/// file's bytes, which an append copies to owned bytes first.
#[derive(Clone, Default, PartialEq, Eq)]
struct BitStream {
    bytes: Bytes,
    bits: usize,
    directory: PackedColumn,
}

impl BitStream {
    /// An empty stream with exact room for `bits` bits.
    ///
    /// # Panics
    ///
    /// If `bits` is 2^32 or more.
    fn with_capacity(bits: usize) -> Self {
        u32::try_from(bits).expect("bit stream overflow: 2^32 bits");
        let bytes = if bits == 0 { 0 } else { bytes_for(bits, 1).expect("bounded") };
        BitStream {
            bytes: Vec::with_capacity(bytes).into(),
            bits: 0,
            directory: PackedColumn::with_width(samples(bits), sample_width(bits)),
        }
    }

    /// Appends the low `width` bits of `value` (`width` at most 64),
    /// sampling the directory at every block start they cross.
    fn put(&mut self, value: u64, width: usize) {
        if width == 0 {
            return;
        }
        let (start, end) = (self.bits, self.bits + width);
        let need = end.div_ceil(64) * 8 + 8;
        let bytes = self.bytes.make_mut();
        while bytes.len() < need {
            bytes.extend_from_slice(&[0; 8]);
        }
        let (at, shift) = (self.bits / 64 * 8, self.bits % 64);
        self.or_word(at, value << shift);
        if shift + width > 64 {
            self.or_word(at + 8, value >> (64 - shift));
        }
        self.bits = end;
        let mut block = start.div_ceil(RANK_BLOCK).max(1);
        while block * RANK_BLOCK < end {
            self.sample(block);
            block += 1;
        }
    }

    /// Appends the directory's sample of `block`, whose bits and the
    /// samples before whose are all written: the previous sample and the
    /// set bits of the block before.
    fn sample(&mut self, block: usize) {
        let before = if block >= 2 { self.directory.get(block - 2) as usize } else { 0 };
        let words = (block - 1) * (RANK_BLOCK / 64)..block * (RANK_BLOCK / 64);
        let ones = words.map(|w| word(&self.bytes, w).count_ones() as usize).sum::<usize>();
        self.directory.push((before + ones) as u32);
    }

    /// Appends `n` clear bits.
    fn put_zeros(&mut self, mut n: usize) {
        while n > 0 {
            let chunk = n.min(64);
            self.put(0, chunk);
            n -= chunk;
        }
    }

    fn or_word(&mut self, at: usize, bits: u64) {
        let bytes = self.bytes.make_mut();
        let merged = word(bytes, at / 8) | bits;
        bytes[at..at + 8].copy_from_slice(&merged.to_le_bytes());
    }

    /// A stream of `bits` clear bits, its words allocated in full and no
    /// rank directory: the room a column written out of order
    /// ([`BitStream::write`]) is sized to.
    ///
    /// # Panics
    ///
    /// If `bits` is 2^32 or more.
    fn zeroed(bits: usize) -> Self {
        u32::try_from(bits).expect("bit stream overflow: 2^32 bits");
        let bytes = if bits == 0 { 0 } else { bytes_for(bits, 1).expect("bounded") };
        BitStream { bytes: vec![0u8; bytes].into(), bits, directory: PackedColumn::default() }
    }

    /// Sets the bits of the low `width` bits of `value` (`width` at most
    /// 64) at bit `at` of a [`BitStream::zeroed`] stream.
    ///
    /// # Panics
    ///
    /// If the bits reach past the stream: a column sized for less.
    fn write(&mut self, at: usize, value: u64, width: usize) {
        if width == 0 {
            return;
        }
        assert!(at + width <= self.bits, "bit stream overflow: a value past its room");
        let (byte, shift) = (at / 64 * 8, at % 64);
        self.or_word(byte, value << shift);
        if shift + width > 64 {
            self.or_word(byte + 8, value >> (64 - shift));
        }
    }

    fn view(&self) -> BitsView<'_> {
        let width = u32::from(self.bits > 0);
        let bytes: &[u8] = if self.bits == 0 { &[] } else { &self.bytes };
        BitsView {
            bits: PackedView::new(bytes, width, self.bits).unwrap_or_default(),
            ranks: self.directory.view(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes() + self.directory.heap_bytes()
    }

    /// Why `read` is not this stream's image, naming `what`; `None` when
    /// it is.
    fn differs(&self, read: BitsView<'_>, what: &str) -> Option<String> {
        let mine = self.view();
        if mine.bits.bytes() != read.bits.bytes() || mine.bits.width() != read.bits.width() {
            return Some(format!("{what} is not the canonical stream of what it decodes to"));
        }
        if mine.ranks.bytes() != read.ranks.bytes() || mine.ranks.width() != read.ranks.width() {
            return Some(format!("{what}'s rank directory disagrees with its bits"));
        }
        None
    }
}

impl std::fmt::Debug for BitStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitStream").field("bits", &self.bits).finish()
    }
}

/// The widths and lengths of a bit stream's two packed columns, checked
/// against the stream's length: width 1 (0 when empty) for the bits, and
/// one sample per block at the bit length of the stream's length for the
/// directory. Touches no byte.
pub(crate) fn check_stream_shape(
    bits_width: u32,
    len: usize,
    ranks_width: u32,
    samples: usize,
) -> bool {
    bits_width == u32::from(len > 0)
        && samples == self::samples(len)
        && ranks_width == sample_width(len)
}

/// The rank samples of a stream of `bits` bits: one per block after the
/// first (before which no bit is set).
pub(crate) fn samples(bits: usize) -> usize {
    bits.div_ceil(RANK_BLOCK).saturating_sub(1)
}

/// The width of a stream's rank samples: the bit length of its length,
/// or 0 when it has none.
pub(crate) fn sample_width(bits: usize) -> u32 {
    if samples(bits) == 0 {
        0
    } else {
        width_of(u32::try_from(bits).unwrap_or(u32::MAX))
    }
}

// ---------------------------------------------------------------------
// Headers: the presence bitmap.
// ---------------------------------------------------------------------

/// A borrowed header bitmap: bit `k` set when `k` is a header key; the
/// `ones` keys are the headers, in order.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitmapView<'a> {
    /// The bits and their rank directory.
    pub bits: BitsView<'a>,
    /// The number of set bits: the ordering's header count.
    pub ones: usize,
}

impl<'a> BitmapView<'a> {
    /// The number of headers.
    #[inline]
    pub fn len(self) -> usize {
        self.ones
    }

    /// True when the ordering has no header.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.ones == 0
    }

    /// The header number of `k1` — the set bits before it — or `None`
    /// when `k1` is not a header key.
    #[inline]
    pub fn rank(self, k1: Id) -> Option<usize> {
        let k = k1.0 as usize;
        self.bits.get(k).then(|| self.bits.rank1(k))
    }

    /// The header keys in ascending order.
    #[inline]
    pub fn keys(self) -> BitmapKeys<'a> {
        BitmapKeys { map: self, at: 0, cur: word(self.bits.bytes(), 0), left: self.ones }
    }

    /// The largest header key: the last bit.
    pub fn last(self) -> Option<Id> {
        let n = self.bits.len();
        (n > 0).then(|| Id((n - 1) as u32))
    }
}

/// The header keys of a [`BitmapView`], ascending: a select iterator that
/// decodes the bitmap a word at a time. Its length is the header count.
#[derive(Clone, Debug)]
pub struct BitmapKeys<'a> {
    map: BitmapView<'a>,
    /// The word `cur` came from.
    at: usize,
    /// The bits of word `at` not yet yielded.
    cur: u64,
    left: usize,
}

impl Iterator for BitmapKeys<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        if self.left == 0 {
            return None;
        }
        let words = self.map.bits.len().div_ceil(64);
        while self.cur == 0 {
            self.at += 1;
            if self.at >= words {
                self.left = 0;
                return None;
            }
            self.cur = word(self.map.bits.bytes(), self.at);
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        self.left -= 1;
        Some(Id((self.at * 64 + bit) as u32))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for BitmapKeys<'_> {}

/// An ordering's header keys as an owned presence bitmap: appended in
/// ascending order into room for the largest key, sized up front.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct RankBitmap {
    stream: BitStream,
    /// The keys: counted as they are appended, or a snapshot's declared
    /// count.
    ones: usize,
}

impl RankBitmap {
    /// An empty bitmap with exact room for keys up to `max`.
    ///
    /// # Panics
    ///
    /// If `max` is `u32::MAX`: the bitmap would need 2^32 bits.
    pub fn with_capacity(max: Option<Id>) -> Self {
        let stream = BitStream::with_capacity(max.map_or(0, |m| m.0 as usize + 1));
        RankBitmap { stream, ones: 0 }
    }

    /// Appends key `k`, which must be above every key before it.
    pub fn push(&mut self, k: Id) {
        let k = k.0 as usize;
        debug_assert!(k >= self.stream.bits, "header keys ascend");
        self.stream.put_zeros(k - self.stream.bits);
        self.stream.put(1, 1);
        self.ones += 1;
    }

    /// The bitmap of `keys` keys over a `len`-bit stream whose image is
    /// `bits`, with the rank directory `ranks`: a snapshot's columns, read
    /// or mapped, taken as they are. Reads clamp to them, so columns that
    /// are not the canonical ones give wrong answers, never a panic.
    pub(crate) fn unchecked(bits: Bytes, len: usize, ranks: PackedColumn, keys: usize) -> Self {
        RankBitmap { stream: BitStream { bytes: bits, bits: len, directory: ranks }, ones: keys }
    }

    /// The bitmap of strictly ascending `keys`.
    pub fn from_sorted(keys: &[Id]) -> Self {
        let mut map = RankBitmap::with_capacity(keys.last().copied());
        keys.iter().for_each(|&k| map.push(k));
        map
    }

    /// The bitmap as the view every read goes through.
    #[inline]
    pub fn view(&self) -> BitmapView<'_> {
        BitmapView { bits: self.stream.view(), ones: self.ones }
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.ones
    }

    /// True when the bitmap holds no key.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Heap bytes: the bits and the directory.
    pub fn heap_bytes(&self) -> usize {
        self.stream.heap_bytes()
    }
}

// ---------------------------------------------------------------------
// Headers, either encoding.
// ---------------------------------------------------------------------

/// What an ordering's header keys need, counted before they are written:
/// enough to size either encoding and to choose between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct HeaderSize {
    keys: usize,
    first: u32,
    last: u32,
}

impl HeaderSize {
    /// Counts one more key, above every key before it.
    pub(crate) fn add(&mut self, k1: Id) {
        if self.keys == 0 {
            self.first = k1.0;
        }
        self.keys += 1;
        self.last = k1.0;
    }

    /// The heap bytes of the bitmap: a bit per id to the largest key and a
    /// rank sample per block — `None` when it cannot be built (a key of
    /// `u32::MAX`).
    fn bitmap_bytes(&self) -> Option<usize> {
        if self.keys == 0 {
            return Some(0);
        }
        let bits = u32::try_from(self.last as usize + 1).ok()?;
        let stream = bytes_for(bits as usize, 1)?;
        Some(stream + bytes_for(samples(bits as usize), sample_width(bits as usize))?)
    }

    /// The sizes of the keys as one Elias–Fano window.
    fn window(&self) -> KeySize {
        let mut size = KeySize::default();
        if self.keys > 0 {
            size.add(self.keys, Id(self.first), Id(self.last));
        }
        size
    }

    /// True when one Elias–Fano window is smaller than the bitmap: an id
    /// space the keys are sparse in.
    pub(crate) fn elias_fano(&self) -> bool {
        self.bitmap_bytes().is_none_or(|bitmap| self.window().ef_bytes() < bitmap)
    }
}

/// An ordering's header keys: a presence bitmap over the ids up to the
/// largest, or — where the keys are sparse in the id space and that is
/// smaller — one Elias–Fano window of them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HeaderColumn {
    /// A bit per id and a rank directory.
    Bitmap(RankBitmap),
    /// The keys as one Elias–Fano window.
    EliasFano(EfColumn),
}

impl Default for HeaderColumn {
    fn default() -> Self {
        HeaderColumn::Bitmap(RankBitmap::default())
    }
}

impl HeaderColumn {
    /// An empty column of the encoding `size` chooses, with exact room.
    pub(crate) fn with_capacity(size: HeaderSize) -> Self {
        if size.elias_fano() {
            HeaderColumn::EliasFano(EfColumn::with_capacity(size.window()))
        } else {
            let last = (size.keys > 0).then_some(Id(size.last));
            HeaderColumn::Bitmap(RankBitmap::with_capacity(last))
        }
    }

    /// The column of strictly ascending `keys`, in the encoding their
    /// sizes choose.
    pub fn from_sorted(keys: &[Id]) -> Self {
        let mut size = HeaderSize::default();
        keys.iter().for_each(|&k| size.add(k));
        let mut column = HeaderColumn::with_capacity(size);
        keys.iter().for_each(|&k| column.push(k));
        column
    }

    /// Appends key `k`, above every key before it. The Elias–Fano window
    /// closes with its last key.
    pub(crate) fn push(&mut self, k: Id) {
        match self {
            HeaderColumn::Bitmap(map) => map.push(k),
            HeaderColumn::EliasFano(column) => {
                column.push(k.0);
                if column.len() == column.room() {
                    column.end_window();
                }
            }
        }
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        match self {
            HeaderColumn::Bitmap(map) => map.len(),
            HeaderColumn::EliasFano(column) => column.len(),
        }
    }

    /// True when the column holds no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column as the view every read goes through.
    #[inline]
    pub fn view(&self) -> HeadersView<'_> {
        match self {
            HeaderColumn::Bitmap(map) => HeadersView::Bitmap(map.view()),
            HeaderColumn::EliasFano(column) => HeadersView::EliasFano(column.view()),
        }
    }

    /// Heap bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            HeaderColumn::Bitmap(map) => map.heap_bytes(),
            HeaderColumn::EliasFano(column) => KeyColumn::ef_heap_bytes(column),
        }
    }

    /// Checks that `read` is the image of the column its keys make, in
    /// the encoding their sizes choose, or says why it is not, naming
    /// `what`.
    pub fn check(read: HeadersView<'_>, what: &str) -> Result<(), String> {
        let keys: Vec<Id> = read.keys().collect();
        if keys.len() != read.len() {
            return Err(format!("{what} does not hold its {} keys", read.len()));
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("{what} does not ascend"));
        }
        let column = HeaderColumn::from_sorted(&keys);
        match (&column, read) {
            (HeaderColumn::Bitmap(mine), HeadersView::Bitmap(read)) => {
                if mine.stream.bits != read.bits.len() {
                    return Err(format!("{what} does not end at its largest key"));
                }
                mine.stream.differs(read.bits, what).map_or(Ok(()), Err)
            }
            (HeaderColumn::EliasFano(mine), HeadersView::EliasFano(read)) => {
                mine.differs(read, what).map_or(Ok(()), Err)
            }
            _ => Err(format!("{what} is not in the encoding its sizes choose")),
        }
    }
}

/// A borrowed header column, either encoding. `Copy`.
#[derive(Clone, Copy, Debug)]
pub enum HeadersView<'a> {
    /// A presence bitmap.
    Bitmap(BitmapView<'a>),
    /// One Elias–Fano window of every key.
    EliasFano(EfView<'a>),
}

impl Default for HeadersView<'_> {
    fn default() -> Self {
        HeadersView::Bitmap(BitmapView::default())
    }
}

impl<'a> HeadersView<'a> {
    /// The number of headers.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            HeadersView::Bitmap(map) => map.len(),
            HeadersView::EliasFano(ef) => ef.len,
        }
    }

    /// True when the ordering has no header.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The header number of `k1`, or `None` when it is not a header key:
    /// a rank of the bitmap, or a search of the window.
    #[inline]
    pub fn rank(self, k1: Id) -> Option<usize> {
        match self {
            HeadersView::Bitmap(map) => map.rank(k1),
            HeadersView::EliasFano(ef) => ef.search(0, 0..ef.len, k1.0).ok(),
        }
    }

    /// The header keys in ascending order.
    #[inline]
    pub fn keys(self) -> Keys<'a> {
        let it = match self {
            HeadersView::Bitmap(map) => KeysIter::Bitmap(map.keys()),
            HeadersView::EliasFano(ef) => KeysIter::EliasFano(ef.iter(0, 0..ef.len)),
        };
        Keys { view: self, it }
    }

    /// The largest header key.
    pub fn last(self) -> Option<Id> {
        match self {
            HeadersView::Bitmap(map) => map.last(),
            HeadersView::EliasFano(_) => self.keys().last(),
        }
    }
}

/// The header keys of an ordering, ascending: decoded from the bitmap a
/// word at a time, or from the window a key at a time. Its length is the
/// header count, and [`Keys::contains`] is a rank, not a scan.
#[derive(Clone, Debug)]
pub struct Keys<'a> {
    view: HeadersView<'a>,
    it: KeysIter<'a>,
}

#[derive(Clone, Debug)]
enum KeysIter<'a> {
    Bitmap(BitmapKeys<'a>),
    EliasFano(EfIter<'a>),
}

impl Keys<'_> {
    /// True when `k1` is a header key.
    #[inline]
    pub fn contains(&self, k1: Id) -> bool {
        self.view.rank(k1).is_some()
    }
}

impl Iterator for Keys<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        match &mut self.it {
            KeysIter::Bitmap(it) => it.next(),
            KeysIter::EliasFano(it) => it.next().map(Id),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.it {
            KeysIter::Bitmap(it) => it.size_hint(),
            KeysIter::EliasFano(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Keys<'_> {}

/// The keys still to come, against a vector of them.
impl PartialEq<Vec<Id>> for Keys<'_> {
    fn eq(&self, other: &Vec<Id>) -> bool {
        self.len() == other.len() && self.clone().eq(other.iter().copied())
    }
}

// ---------------------------------------------------------------------
// Vector keys: Elias–Fano windows.
// ---------------------------------------------------------------------

/// The `l` of a window of `m` keys after its first, spanning `u = last −
/// first` (at least `m`): `⌊log2(u / m)⌋`.
#[inline]
fn ef_l(m: usize, u: u32) -> u32 {
    let q = (u as usize / m.max(1)).max(1);
    usize::BITS - 1 - q.leading_zeros()
}

/// The stream bits of a window of `n` keys from `first` to `last`: none
/// for a single key.
pub(crate) fn ef_window_bits(n: usize, first: Id, last: Id) -> usize {
    if n < 2 {
        return 0;
    }
    let (m, u) = (n - 1, last.0 - first.0);
    let l = ef_l(m, u);
    L_BITS + m * l as usize + ((u - 1) >> l) as usize + m
}

/// What a vector-key column needs, summed over its windows before it is
/// built: enough to size either encoding exactly and to choose between
/// them ([`KeySize::elias_fano`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct KeySize {
    /// Windows (headers).
    pub(crate) windows: usize,
    /// Keys.
    pub(crate) keys: usize,
    /// The largest key: the packed column's width.
    pub(crate) max_key: u32,
    /// The largest first key of a window: the base column's width.
    max_first: u32,
    /// Elias–Fano stream bits.
    bits: usize,
}

impl KeySize {
    /// Counts one more window, of `n` keys from `first` to `last`.
    pub(crate) fn add(&mut self, n: usize, first: Id, last: Id) {
        self.windows += 1;
        self.keys += n;
        self.max_key = self.max_key.max(last.0);
        self.max_first = self.max_first.max(first.0);
        self.bits += ef_window_bits(n, first, last);
    }

    /// The heap bytes of the packed column.
    pub(crate) fn packed_bytes(&self) -> usize {
        bytes_for(self.keys, width_of(self.max_key)).unwrap_or(usize::MAX)
    }

    /// The heap bytes of the Elias–Fano column: base, bit offsets (in the
    /// smaller of their encodings), stream and its directory.
    pub(crate) fn ef_bytes(&self) -> usize {
        let Ok(bits) = u32::try_from(self.bits) else { return usize::MAX };
        let stream = if bits == 0 { 0 } else { bytes_for(self.bits, 1).unwrap_or(usize::MAX) };
        let parts = [
            bytes_for(self.windows, width_of(self.max_first)),
            Some(OffsetsSize::new(self.windows + 1, bits).bytes()),
            Some(stream),
            bytes_for(samples(self.bits), sample_width(self.bits)),
        ];
        parts.into_iter().try_fold(0usize, |sum, p| sum.checked_add(p?)).unwrap_or(usize::MAX)
    }

    /// True when the Elias–Fano column is the smaller.
    pub(crate) fn elias_fano(&self) -> bool {
        self.ef_bytes() < self.packed_bytes()
    }

    /// The sizes of the windows of `keys`, each range of `windows` one.
    pub(crate) fn of_windows(keys: &[u32], windows: impl Iterator<Item = Range<usize>>) -> Self {
        let mut size = KeySize::default();
        for w in windows {
            let (first, last) = (keys[w.start], keys[w.end - 1]);
            size.add(w.len(), Id(first), Id(last));
        }
        size
    }
}

/// A borrowed Elias–Fano vector-key column. `Copy`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EfView<'a> {
    /// Each window's first key.
    pub base: PackedView<'a>,
    /// Where each window's bits start in `stream`, one entry more than
    /// windows: window `h` is `offs[h]..offs[h + 1]`.
    pub offs: OffsetsView<'a>,
    /// Every window's `l`, low parts and high parts, window after window.
    pub stream: BitsView<'a>,
    /// The number of keys.
    pub len: usize,
}

/// Where one window's parts lie, clamped to its bits.
#[derive(Clone, Copy, Debug)]
struct Frame {
    first: u32,
    /// Keys after the first that the window's bits can hold.
    m: usize,
    l: u32,
    low_at: usize,
    high_at: usize,
    end: usize,
}

impl Frame {
    /// A window of its first key alone.
    fn single(first: u32) -> Self {
        Frame { first, m: 0, l: 0, low_at: 0, high_at: 0, end: 0 }
    }

    /// Where the `r`-th one (or zero) of the high region lies when the
    /// keys spread evenly: a select's first guess.
    #[inline]
    fn near(&self, r: usize, one: bool) -> usize {
        near(self.high_at, self.end, self.m, r, one)
    }
}

/// Where the `r`-th one (or zero) of a high region from `high_at` to `end`
/// holding `ones` ones lies when they spread evenly over it.
#[inline]
fn near(high_at: usize, end: usize, ones: usize, r: usize, one: bool) -> usize {
    let zeros = (end - high_at).saturating_sub(ones);
    let (mine, other) = if one { (ones, zeros) } else { (zeros, ones) };
    high_at + r + (r as u64 * other as u64 / mine.max(1) as u64) as usize
}

impl<'a> EfView<'a> {
    /// The frame of window `h`, which holds `n` keys: a window whose bits
    /// cannot hold its `l` and low parts is its first key alone.
    #[inline]
    fn frame(self, h: usize, n: usize) -> Frame {
        let first = self.base.get(h);
        if n < 2 {
            return Frame::single(first);
        }
        match self.offs.pair(h) {
            Some((start, end)) => self.frame_at(first, n, start as usize..end as usize),
            None => Frame::single(first),
        }
    }

    /// The frame of a window of `n` keys from `first` whose bits are
    /// `bits` of the stream, clamped to it.
    #[inline]
    fn frame_at(self, first: u32, n: usize, bits: Range<usize>) -> Frame {
        let single = Frame::single(first);
        if n < 2 {
            return single;
        }
        let (start, end) = (bits.start, bits.end.min(self.stream.len()));
        if start.saturating_add(L_BITS) > end {
            return single;
        }
        let l = bits_at(self.stream.bytes(), start, L_BITS as u32);
        let (m, low_at) = (n - 1, start + L_BITS);
        match m.checked_mul(l as usize).and_then(|lows| low_at.checked_add(lows)) {
            Some(high_at) if high_at <= end => Frame { first, m, l, low_at, high_at, end },
            _ => single,
        }
    }

    /// The low part of key `j` after the first.
    #[inline(always)]
    fn low(self, f: &Frame, j: usize) -> u32 {
        bits_at(self.stream.bytes(), f.low_at + j * f.l as usize, f.l)
    }

    /// Key `i` of window `h`, whose leaves are `window`, or `None` past
    /// the window: the first key from the base column, any other from a
    /// select of its one in the high region and its low part.
    #[inline]
    pub fn get(self, h: usize, window: Range<usize>, i: usize) -> Option<u32> {
        if i >= window.len() {
            return None;
        }
        self.get_framed(&self.frame(h, window.len()), i)
    }

    /// Where window `h`'s bits lie in the stream, `(0, 0)` where its bit
    /// offsets cannot be read: one pair read of the bit offsets, which a
    /// list read many times takes once ([`EfView::get_in`] and the other
    /// `_in` reads).
    #[inline]
    pub fn bits(self, h: usize) -> (u32, u32) {
        self.offs.pair(h).unwrap_or((0, 0))
    }

    /// The frame of window `h` of `n` keys whose bits are `bits`.
    #[inline]
    fn frame_in(self, h: usize, bits: (u32, u32), n: usize) -> Frame {
        self.frame_at(self.base.get(h), n, bits.0 as usize..bits.1 as usize)
    }

    /// [`EfView::get`] of window `h` whose bits are `bits` ([`EfView::bits`]).
    #[inline]
    pub fn get_in(self, h: usize, bits: (u32, u32), window: Range<usize>, i: usize) -> Option<u32> {
        if i >= window.len() {
            return None;
        }
        self.get_framed(&self.frame_in(h, bits, window.len()), i)
    }

    /// [`EfView::iter`] of window `h` whose bits are `bits`.
    #[inline]
    pub fn iter_in(self, h: usize, bits: (u32, u32), window: Range<usize>) -> EfIter<'a> {
        self.iter_frame(self.frame_in(h, bits, window.len()), !window.is_empty())
    }

    /// [`EfView::search`] of window `h` whose bits are `bits`.
    #[inline]
    pub fn search_in(
        self,
        h: usize,
        bits: (u32, u32),
        window: Range<usize>,
        x: u32,
    ) -> Result<usize, usize> {
        if window.is_empty() {
            return Err(0);
        }
        self.search_framed(&self.frame_in(h, bits, window.len()), x)
    }

    /// [`EfView::seek`] of window `h` whose bits are `bits`.
    #[inline]
    pub fn seek_in(
        self,
        h: usize,
        bits: (u32, u32),
        window: Range<usize>,
        from: usize,
        x: u32,
    ) -> usize {
        let n = window.len();
        if from >= n {
            return n;
        }
        self.seek_framed(&self.frame_in(h, bits, n), n, from, x)
    }

    /// Key `i` of the window `f` frames, `i` within its length.
    #[inline]
    fn get_framed(self, f: &Frame, i: usize) -> Option<u32> {
        let Some(j) = i.checked_sub(1) else { return Some(f.first) };
        if j >= f.m {
            return None;
        }
        // The clear bits before the key's one are its high part; it lies
        // near where evenly spread keys would put it.
        let one = self.stream.select(f.high_at, f.end, j, true, f.near(j, true))?;
        let high = (one - f.high_at).saturating_sub(j) as u32;
        Some(f.first.wrapping_add(1).wrapping_add(high.wrapping_shl(f.l) | self.low(f, j)))
    }

    /// The keys of window `h`, whose leaves are `window`, in order.
    #[inline]
    pub fn iter(self, h: usize, window: Range<usize>) -> EfIter<'a> {
        self.iter_frame(self.frame(h, window.len()), !window.is_empty())
    }

    /// The keys of the window framed by `f`, none unless `any`.
    #[inline]
    fn iter_frame(self, f: Frame, any: bool) -> EfIter<'a> {
        let bytes = self.stream.bytes();
        let first_word = if f.m == 0 { 0 } else { word(bytes, f.high_at / 64) };
        EfIter {
            bytes,
            head: any.then_some(f.first),
            base: f.first.wrapping_add(1),
            left: f.m,
            l: f.l,
            low_bit: f.low_at,
            zeros_from: f.high_at,
            end: f.end,
            word_at: f.high_at / 64,
            cur: first_word & !low_mask(f.high_at % 64),
        }
    }

    /// Searches `x` in window `h`, whose leaves are `window`: `Ok(i)` when
    /// its key `i` is `x`, else `Err(i)` where `x` would go — what
    /// `slice::binary_search` returns on the window's keys.
    #[inline]
    pub fn search(self, h: usize, window: Range<usize>, x: u32) -> Result<usize, usize> {
        if window.is_empty() {
            return Err(0);
        }
        self.search_framed(&self.frame(h, window.len()), x)
    }

    /// [`EfView::search`] of the non-empty window `f` frames.
    #[inline]
    fn search_framed(self, f: &Frame, x: u32) -> Result<usize, usize> {
        if x <= f.first {
            return if x == f.first { Ok(0) } else { Err(0) };
        }
        if f.m == 0 {
            return Err(1);
        }
        let w = x - f.first - 1;
        let (hx, lx) = ((w >> f.l) as usize, w & low_mask(f.l as usize) as u32);
        // The bucket of `hx`: the keys whose high part is `hx`, between
        // the `hx`-th clear bit of the high region and the next.
        let start = if hx == 0 {
            f.high_at
        } else {
            match self.stream.select(f.high_at, f.end, hx - 1, false, f.near(hx - 1, false)) {
                Some(zero) => zero + 1,
                None => return Err(1 + f.m),
            }
        };
        let ones_to = |at: usize| (at - f.high_at).saturating_sub(hx).min(f.m);
        let (j0, j1) = (ones_to(start), ones_to(self.stream.next_zero(start, f.end)));
        let (mut lo, mut hi) = (j0, j1.max(j0));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.low(f, mid) < lx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < j1 && self.low(f, lo) == lx {
            Ok(1 + lo)
        } else {
            Err(1 + lo)
        }
    }

    /// The position in window `h` of its first key at or after `from`
    /// that is at least `x` — `window.len()` if there is none — where the
    /// keys before `from` are below `x`: Elias–Fano's NextGEQ.
    ///
    /// It looks first from `from`'s high bucket. The answer's one lies no
    /// earlier than bit `from − 1 + hx` of the high region, `hx` the
    /// target's high part, and every one before that bit is a key below
    /// `x`: so the ones before it are counted (a scan, or two ranks over a
    /// long window), and the keys from there on are read a word at a time
    /// for up to `SEEK_SCAN` bits. A target farther than that is found
    /// by [`EfView::search`], which costs the same however far it
    /// advances.
    #[inline]
    pub fn seek(self, h: usize, window: Range<usize>, from: usize, x: u32) -> usize {
        let n = window.len();
        if from >= n {
            return n;
        }
        self.seek_framed(&self.frame(h, n), n, from, x)
    }

    /// [`EfView::seek`] in the window of `n` keys `f` frames, `from`
    /// below `n`.
    #[inline]
    fn seek_framed(self, f: &Frame, n: usize, from: usize, x: u32) -> usize {
        if x <= f.first {
            // The first key is at least `x`, so `from` is 0 — or, on a
            // corrupt window, whatever `from` is.
            return from;
        }
        if f.m == 0 {
            return from.max(1).min(n);
        }
        let w = x - f.first - 1;
        let (hx, lx) = ((w >> f.l) as usize, w & low_mask(f.l as usize) as u32);
        let lo = f.high_at.saturating_add(from.saturating_sub(1)).saturating_add(hx);
        if lo >= f.end {
            return n;
        }
        // Keys (after the first) whose ones lie before `lo`.
        let mut j = self.stream.ones_between(f.high_at, lo).min(f.m);
        let stop = f.end.min(lo + SEEK_SCAN);
        let (bytes, mut s) = (self.stream.bytes(), lo);
        while s < stop {
            let valid = (64 - s % 64).min(stop - s);
            let mut ones = (word(bytes, s / 64) >> (s % 64)) & low_mask_or_all(valid);
            while ones != 0 {
                if j >= f.m {
                    return n;
                }
                let one = s + ones.trailing_zeros() as usize;
                ones &= ones - 1;
                // The clear bits before the key's one are its high part.
                let high = (one - f.high_at).saturating_sub(j);
                if high > hx || (high == hx && self.low(f, j) >= lx) {
                    return (1 + j).max(from).min(n);
                }
                j += 1;
            }
            s += valid;
        }
        if s >= f.end {
            return (1 + j).max(from).min(n);
        }
        let (Ok(at) | Err(at)) = self.search_framed(f, x);
        at.max(from).min(n)
    }
}

/// Bits of a high region [`EfView::seek`] reads from its first candidate
/// before it falls back to a search.
const SEEK_SCAN: usize = 256;

/// The keys of one Elias–Fano window, in order: the first from the base
/// column, then one high-region one and one low part a key, the high
/// region read a word at a time.
#[derive(Clone, Debug)]
pub struct EfIter<'a> {
    bytes: &'a [u8],
    /// The first key, until it is yielded.
    head: Option<u32>,
    /// The first key plus one, to which every later key's code adds.
    base: u32,
    /// Keys after the first still to decode.
    left: usize,
    l: u32,
    /// The bit of the next low part.
    low_bit: usize,
    /// The start of the high region plus the keys decoded so far: a
    /// key's one minus it is the key's high part.
    zeros_from: usize,
    end: usize,
    /// The word of the high region being read, and its set bits not yet
    /// decoded.
    word_at: usize,
    cur: u64,
}

impl Iterator for EfIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if let Some(first) = self.head.take() {
            return Some(first);
        }
        if self.left == 0 {
            return None;
        }
        while self.cur == 0 {
            self.word_at += 1;
            if self.word_at * 64 >= self.end {
                self.left = 0;
                return None;
            }
            self.cur = word(self.bytes, self.word_at);
        }
        let one = self.word_at * 64 + self.cur.trailing_zeros() as usize;
        if one >= self.end {
            self.left = 0;
            return None;
        }
        self.cur &= self.cur - 1;
        // The clear bits before this key's one are its high part.
        let high = (one - self.zeros_from) as u32;
        self.zeros_from += 1;
        let low = if self.l == 0 { 0 } else { bits_at(self.bytes, self.low_bit, self.l) };
        self.low_bit += self.l as usize;
        self.left -= 1;
        Some(self.base.wrapping_add(high.wrapping_shl(self.l) | low))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.left + usize::from(self.head.is_some());
        (n, Some(n))
    }
}

impl ExactSizeIterator for EfIter<'_> {}

/// An owned Elias–Fano vector-key column, appended window by window into
/// room sized exactly up front (`KeySize`). The keys of the open window
/// wait in a buffer until it is closed, since its `l` depends on its last
/// key; the buffer is freed with the last window.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct EfColumn {
    base: PackedColumn,
    offs: OffsetsColumn,
    stream: BitStream,
    len: u32,
    /// What an unfinished column was sized for, and its open window.
    build: Option<Box<EfBuild>>,
}

/// The state of an [`EfColumn`] being appended to, freed with its last
/// window.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
struct EfBuild {
    /// The windows and keys the column was sized for.
    windows: usize,
    room: usize,
    /// The open window's keys.
    open: Vec<u32>,
}

impl EfColumn {
    /// An empty column with exact room for what `size` counted.
    pub(crate) fn with_capacity(size: KeySize) -> Self {
        let bits = u32::try_from(size.bits).expect("bit stream overflow: 2^32 bits");
        let mut offs = OffsetsColumn::with_capacity(OffsetsSize::new(size.windows + 1, bits));
        offs.push(0);
        EfColumn {
            base: PackedColumn::with_capacity(size.windows, size.max_first),
            offs,
            stream: BitStream::with_capacity(size.bits),
            len: 0,
            build: (size.windows > 0).then(|| {
                Box::new(EfBuild { windows: size.windows, room: size.keys, open: Vec::new() })
            }),
        }
    }

    /// The keys the column was sized for.
    fn room(&self) -> usize {
        self.build.as_ref().map_or(self.len as usize, |build| build.room)
    }

    /// Appends a key to the open window.
    #[inline]
    pub(crate) fn push(&mut self, k: u32) {
        self.build.as_mut().expect("room for a key").open.push(k);
        self.len += 1;
    }

    /// Closes the open window, which holds at least one key; the build's
    /// state goes with the last.
    pub(crate) fn end_window(&mut self) {
        let build = self.build.as_mut().expect("an open window");
        let keys = std::mem::take(&mut build.open);
        let (first, last) = (keys[0], keys[keys.len() - 1]);
        self.base.push(first);
        if keys.len() > 1 {
            let (m, u) = (keys.len() - 1, last - first);
            let l = ef_l(m, u);
            let mut out = Gather { stream: &mut self.stream, bits: 0, len: 0 };
            out.push(u64::from(l), L_BITS);
            for &k in &keys[1..] {
                out.push(u64::from(k - first - 1) & low_mask(l as usize), l as usize);
            }
            let mut prev = 0;
            for &k in &keys[1..] {
                let high = ((k - first - 1) >> l) as usize;
                out.push_unary(high - prev);
                prev = high;
            }
            out.flush();
        }
        self.offs.push(self.stream.bits as u32);
        match &mut self.build {
            Some(build) if self.base.len() < build.windows => {
                build.open = keys;
                build.open.clear();
            }
            _ => self.build = None,
        }
    }

    /// The column of `len` keys whose windows' first keys are `base`, whose
    /// windows' bit offsets are `offs`, and whose `bits`-bit stream's image
    /// and rank directory are `stream` and `ranks`: a snapshot's columns,
    /// read or mapped, taken as they are. Reads clamp to them, so columns
    /// that are not the canonical ones give wrong answers, never a panic.
    pub(crate) fn unchecked(
        base: PackedColumn,
        offs: OffsetsColumn,
        (stream, bits): (Bytes, usize),
        ranks: PackedColumn,
        len: u32,
    ) -> Self {
        let stream = BitStream { bytes: stream, bits, directory: ranks };
        EfColumn { base, offs, stream, len, build: None }
    }

    /// The Elias–Fano column of `keys` windowed by `offs` — a tiling
    /// cumulative offsets column, each window strictly ascending —
    /// whatever the packed column would take.
    pub fn from_windows<'o>(keys: &[u32], offs: impl Into<OffsetsView<'o>>) -> Self {
        let offs = offs.into();
        let mut column = EfColumn::with_capacity(KeySize::of_windows(keys, windows_of(offs)));
        for w in windows_of(offs) {
            keys[w].iter().for_each(|&k| column.push(k));
            column.end_window();
        }
        column
    }

    /// The column as the view every read goes through.
    #[inline]
    pub fn view(&self) -> EfView<'_> {
        EfView {
            base: self.base.view(),
            offs: self.offs.view(),
            stream: self.stream.view(),
            len: self.len as usize,
        }
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the column holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`EfView::get_in`] on the column's view, out of line, so that a
    /// list's packed path stays small enough to inline into its caller.
    #[inline(never)]
    pub fn get_in(
        &self,
        h: usize,
        bits: (u32, u32),
        window: Range<usize>,
        i: usize,
    ) -> Option<u32> {
        self.view().get_in(h, bits, window, i)
    }

    /// [`EfView::search_in`] on the column's view, out of line.
    #[inline(never)]
    pub fn search_in(
        &self,
        h: usize,
        bits: (u32, u32),
        window: Range<usize>,
        x: u32,
    ) -> Result<usize, usize> {
        self.view().search_in(h, bits, window, x)
    }

    /// [`EfView::seek_in`] on the column's view, out of line.
    #[inline(never)]
    pub fn seek_in(
        &self,
        h: usize,
        bits: (u32, u32),
        window: Range<usize>,
        from: usize,
        x: u32,
    ) -> usize {
        self.view().seek_in(h, bits, window, from, x)
    }

    /// Why `read` is not this column's image, naming `what` and the part
    /// that differs; `None` when it is.
    fn differs(&self, read: EfView<'_>, what: &str) -> Option<String> {
        let mine = self.view();
        if mine.base != read.base {
            Some(format!("{what}'s base column is not canonical"))
        } else if mine.offs != read.offs {
            Some(format!("{what}'s bit-offset column is not canonical"))
        } else {
            self.stream.differs(read.stream, &format!("{what}'s stream"))
        }
    }

    /// Heap bytes of the base column.
    pub fn base_bytes(&self) -> usize {
        self.base.heap_bytes()
    }

    /// Heap bytes of the bit-offset column.
    pub fn offset_bytes(&self) -> usize {
        self.offs.heap_bytes()
    }

    /// True when the bit-offset column is one Elias–Fano window.
    pub fn offsets_coded(&self) -> bool {
        self.offs.is_elias_fano()
    }

    /// Heap bytes of the stream's bits.
    pub fn stream_bytes(&self) -> usize {
        self.stream.bytes.heap_bytes()
    }

    /// Heap bytes of the stream's rank directory.
    pub fn rank_bytes(&self) -> usize {
        self.stream.directory.heap_bytes()
    }
}

/// Gathers short appends to a [`BitStream`] into 64-bit ones.
struct Gather<'s> {
    stream: &'s mut BitStream,
    /// Bits not yet appended, the first in bit 0.
    bits: u64,
    len: usize,
}

impl Gather<'_> {
    /// Appends the low `width` bits of `value`, `width` at most 32.
    #[inline]
    fn push(&mut self, value: u64, width: usize) {
        if width == 0 {
            return;
        }
        if self.len + width > 64 {
            self.flush();
        }
        self.bits |= value << self.len;
        self.len += width;
    }

    /// Appends `zeros` clear bits and a set one.
    fn push_unary(&mut self, mut zeros: usize) {
        while zeros >= 32 {
            self.push(0, 32);
            zeros -= 32;
        }
        self.push(1 << zeros, zeros + 1);
    }

    /// Appends what is gathered.
    fn flush(&mut self) {
        self.stream.put(self.bits, self.len);
        (self.bits, self.len) = (0, 0);
    }
}

/// The windows of a cumulative offsets column, decoded in one pass.
pub(crate) fn windows_of<'a>(
    offs: impl Into<OffsetsView<'a>>,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut values = offs.into().values();
    let mut lo = values.next();
    std::iter::from_fn(move || {
        let hi = values.next()?;
        let window = lo? as usize..hi as usize;
        lo = Some(hi);
        Some(window)
    })
}

// ---------------------------------------------------------------------
// Cumulative offsets: packed, or one Elias–Fano window.
// ---------------------------------------------------------------------

/// What a cumulative offsets column needs, known before it is built: its
/// length and its last value, which is its largest. Enough to size either
/// encoding exactly and to choose the smaller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct OffsetsSize {
    len: usize,
    last: u32,
}

impl OffsetsSize {
    /// The size of a column of `len` values, the last `last`.
    pub(crate) fn new(len: usize, last: u32) -> Self {
        OffsetsSize { len, last }
    }

    /// The Elias–Fano window's `l`: `⌊log2(last / len)⌋`.
    fn l(self) -> u32 {
        ef_l(self.len, self.last)
    }

    /// The window's stream bits: the 5-bit `l`, a low part of `l` bits a
    /// value, then a one a value and `last >> l` zeros between them —
    /// `None` past 2^32 − 1 bits.
    fn ef_bits(self) -> Option<usize> {
        let l = self.l() as usize;
        let bits = L_BITS
            .checked_add(self.len.checked_mul(l + 1)?)?
            .checked_add((self.last >> l) as usize)?;
        u32::try_from(bits).ok().map(|_| bits)
    }

    /// The heap bytes of the packed column.
    fn packed_bytes(self) -> usize {
        bytes_for(self.len, width_of(self.last)).unwrap_or(usize::MAX)
    }

    /// The heap bytes of the Elias–Fano window: its stream and select
    /// directory.
    fn ef_bytes(self) -> usize {
        match self.ef_bits() {
            Some(bits) if self.len > 0 => {
                let stream = bytes_for(bits, 1).unwrap_or(usize::MAX);
                let (samples, width) = (select_samples(self.len), select_width(self.len, bits));
                stream.saturating_add(bytes_for(samples, width).unwrap_or(usize::MAX))
            }
            _ => usize::MAX,
        }
    }

    /// True when the Elias–Fano window is the smaller encoding.
    pub(crate) fn elias_fano(self) -> bool {
        self.ef_bytes() < self.packed_bytes()
    }

    /// The heap bytes of the column in the smaller encoding.
    pub(crate) fn bytes(self) -> usize {
        self.packed_bytes().min(self.ef_bytes())
    }
}

/// Values of an offsets window per sample of its select directory.
pub const SELECT_STEP: usize = 64;

/// The select samples of an offsets window of `len` values: one for every
/// [`SELECT_STEP`]-th value after the first.
pub(crate) fn select_samples(len: usize) -> usize {
    len.saturating_sub(1) / SELECT_STEP
}

/// The width of the select samples of a window of `len` values in a
/// `bits`-bit stream: the bit length of the stream's length, or 0 when it
/// has none.
pub(crate) fn select_width(len: usize, bits: usize) -> u32 {
    if select_samples(len) == 0 {
        0
    } else {
        width_of(u32::try_from(bits).unwrap_or(u32::MAX))
    }
}

/// A cumulative offsets column as one Elias–Fano window, written value
/// by value into a stream sized up front (`OffsetsSize`): the 5-bit `l`,
/// then the high region — value `i`'s high part as a one at bit
/// `(v >> l) + i` of it, the region ending on the last value's one — then
/// value `i`'s low `l` bits at bit `i·l` of the low region. The values may
/// repeat (a bit-offset column's do, wherever a window holds one key),
/// which makes two ones adjacent. Beside the stream, a select directory:
/// the position of every [`SELECT_STEP`]-th value's one after the first,
/// so finding value `i`'s one reads a sample and scans from it to the
/// next — a word or two where the values spread evenly. The high region
/// comes first so that value 0's one is the first set bit after the `l`
/// field.
#[derive(Clone, Debug, Default)]
pub struct EfOffsets {
    /// The stream, its directory the select samples.
    stream: BitStream,
    len: u32,
    /// Values written so far: the build's state.
    written: u32,
}

/// Equal streams and directories of equal length: the build's state
/// follows from them.
impl PartialEq for EfOffsets {
    fn eq(&self, other: &Self) -> bool {
        (self.len, &self.stream) == (other.len, &other.stream)
    }
}

impl Eq for EfOffsets {}

impl EfOffsets {
    /// An empty window with exact room for what `size` counted.
    fn with_capacity(size: OffsetsSize) -> Self {
        let bits = size.ef_bits().expect("offsets overflow: 2^32 bits");
        let l = size.l();
        let mut stream = BitStream::zeroed(bits);
        stream.write(0, u64::from(l), L_BITS);
        let selects =
            PackedColumn::with_width(select_samples(size.len), select_width(size.len, bits));
        let len = u32::try_from(size.len).expect("offsets overflow: 2^32 values");
        stream.directory = selects;
        EfOffsets { stream, len, written: 0 }
    }

    /// Writes the next value, at least the one before, and samples its
    /// one when it is a [`SELECT_STEP`]-th.
    fn push(&mut self, v: u32) {
        let (i, len) = (self.written as usize, self.len as usize);
        assert!(i < len, "offsets overflow: a value past its room");
        let l = bits_at(&self.stream.bytes, 0, L_BITS as u32) as usize;
        let low_at = self.stream.bits - len * l;
        self.stream.write(low_at + i * l, u64::from(v) & low_mask(l), l);
        let one = L_BITS + (v >> l) as usize + i;
        self.stream.write(one, 1, 1);
        if i > 0 && i % SELECT_STEP == 0 {
            self.stream.directory.push(one as u32);
        }
        self.written += 1;
    }

    /// The window of `len` values whose `bits`-bit stream's image and
    /// select directory are `stream` and `selects`: a snapshot's columns,
    /// read or mapped, taken as they are. Reads clamp to them.
    pub(crate) fn unchecked(
        (stream, bits): (Bytes, usize),
        selects: PackedColumn,
        len: u32,
    ) -> Self {
        let stream = BitStream { bytes: stream, bits, directory: selects };
        EfOffsets { stream, len, written: len }
    }

    /// The window as the view every read goes through.
    #[inline]
    pub fn view(&self) -> EfOffsetsView<'_> {
        let stream = self.stream.view();
        EfOffsetsView { stream: stream.bits, selects: stream.ranks, len: self.len as usize }
    }

    /// Heap bytes: the stream and its select directory.
    pub fn heap_bytes(&self) -> usize {
        self.stream.heap_bytes()
    }
}

/// A borrowed [`EfOffsets`]. `Copy`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EfOffsetsView<'a> {
    /// The `l`, the high region and the low parts, one a value.
    pub stream: PackedView<'a>,
    /// The position of every [`SELECT_STEP`]-th value's one after the
    /// first.
    pub selects: PackedView<'a>,
    /// The number of values.
    pub len: usize,
}

/// Where a window of offsets keeps its parts, clamped to its stream: its
/// high region is `L_BITS..end`, its low parts start at `end`.
#[derive(Clone, Copy, Debug)]
struct OffsetsFrame {
    l: u32,
    end: usize,
}

impl<'a> EfOffsetsView<'a> {
    /// The stream as a bit stream: no rank directory, which no read of an
    /// offsets window uses.
    #[inline(always)]
    fn bits(self) -> BitsView<'a> {
        BitsView { bits: self.stream, ranks: PackedView::EMPTY }
    }

    /// The frame of the stream, `None` when its `l` and low parts overrun
    /// it: a corrupt column, every value of which is unreadable.
    #[inline]
    fn frame(self) -> Option<OffsetsFrame> {
        let bits = self.stream.len();
        if bits < L_BITS {
            return None;
        }
        let l = bits_at(self.stream.bytes(), 0, L_BITS as u32);
        let end = bits.checked_sub(self.len.checked_mul(l as usize)?)?;
        (end >= L_BITS).then_some(OffsetsFrame { l, end })
    }

    /// Where value `i`'s one lies: a scan from the last sample at or
    /// before it to the next sample, `None` when that range holds too few
    /// ones — which only a corrupt column's does, so a corrupt sample
    /// gives a wrong value or none, never a longer scan.
    #[inline]
    fn one(self, f: &OffsetsFrame, i: usize) -> Option<usize> {
        let (j, need) = (i / SELECT_STEP, i % SELECT_STEP);
        let from = match j.checked_sub(1) {
            Some(sample) => (self.selects.get(sample) as usize).max(L_BITS),
            None => L_BITS,
        };
        let stop = match j < self.selects.len() {
            true => (self.selects.get(j) as usize).min(f.end),
            false => f.end,
        };
        self.bits().scan(from, stop, need, true)
    }

    /// True when sample `i / SELECT_STEP − 1` of the directory is where
    /// value `i` — `v`, read in order — has its one, or `i` is no
    /// [`SELECT_STEP`]-th value after the first.
    #[inline]
    fn samples_at(self, f: &OffsetsFrame, i: usize, v: u32) -> bool {
        i == 0
            || i % SELECT_STEP != 0
            || self.selects.get(i / SELECT_STEP - 1) as usize == L_BITS + (v >> f.l) as usize + i
    }

    /// Value `i`, whose one is at bit `one` of the stream.
    #[inline(always)]
    fn value(self, f: &OffsetsFrame, i: usize, one: usize) -> u32 {
        let high = (one - L_BITS).saturating_sub(i) as u32;
        let low = bits_at(self.stream.bytes(), f.end + i * f.l as usize, f.l);
        high.wrapping_shl(f.l) | low
    }

    /// Value `i`, or `None` past the column: a select of its one.
    #[inline]
    pub fn get(self, i: usize) -> Option<u32> {
        if i >= self.len {
            return None;
        }
        let f = self.frame()?;
        let one = self.one(&f, i)?;
        Some(self.value(&f, i, one))
    }

    /// Values `i` and `i + 1` — the bounds of window `i` of the column
    /// this one cuts — or `None` past the column: one select of value
    /// `i`'s one and a scan to the next set bit, value `i + 1`'s.
    #[inline]
    pub fn pair(self, i: usize) -> Option<(u32, u32)> {
        if i.checked_add(1)? >= self.len {
            return None;
        }
        let f = self.frame()?;
        let one = self.one(&f, i)?;
        let next = self.bits().next_one(one + 1, f.end)?;
        Some((self.value(&f, i, one), self.value(&f, i + 1, next)))
    }

    /// The values in order, the high region read a word at a time.
    #[inline]
    pub fn values(self) -> EfIter<'a> {
        let bytes = self.stream.bytes();
        let f = self.frame().unwrap_or(OffsetsFrame { l: 0, end: 0 });
        let left = if f.end == 0 { 0 } else { self.len };
        EfIter {
            bytes,
            head: None,
            base: 0,
            left,
            l: f.l,
            low_bit: f.end,
            zeros_from: L_BITS,
            end: f.end,
            word_at: 0,
            cur: word(bytes, 0) & !low_mask(L_BITS),
        }
    }

    /// Checks that the stream is the canonical window of the `values` it
    /// was read to, in order — its `l` and its length are the ones those
    /// values make — and that its select directory is: as long and as
    /// wide as they make, and `sampled`, every sample where the walk
    /// found its value's one ([`EfOffsetsView::samples_at`]). With the
    /// values non-decreasing and all of them read, that leaves no other
    /// image.
    fn check(self, values: usize, last: u32, sampled: bool, what: &str) -> Result<(), String> {
        let size = OffsetsSize::new(self.len, last);
        let l = self.frame().map(|f| f.l);
        if values != self.len
            || l != Some(size.l())
            || Some(self.stream.len()) != size.ef_bits()
            || self.stream.width() != 1
            || self.stream.validate_tail().is_err()
        {
            return Err(format!("{what} is not the canonical window of what it decodes to"));
        }
        let selects = self.selects;
        if !sampled
            || selects.len() != select_samples(self.len)
            || selects.width() != select_width(self.len, self.stream.len())
            || selects.validate_tail().is_err()
        {
            return Err(format!("{what}'s select directory disagrees with its bits"));
        }
        Ok(())
    }
}

/// A cumulative offsets column: bit-packed at the width of its last
/// value, or one Elias–Fano window of its values, whichever is smaller
/// (`OffsetsSize`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OffsetsColumn {
    /// Every value at the width of the last.
    Packed(PackedColumn),
    /// One Elias–Fano window.
    EliasFano(EfOffsets),
}

impl Default for OffsetsColumn {
    fn default() -> Self {
        OffsetsColumn::Packed(PackedColumn::default())
    }
}

impl From<PackedColumn> for OffsetsColumn {
    fn from(column: PackedColumn) -> Self {
        OffsetsColumn::Packed(column)
    }
}

impl OffsetsColumn {
    /// An empty column of the encoding `size` chooses, with exact room.
    pub(crate) fn with_capacity(size: OffsetsSize) -> Self {
        if size.elias_fano() {
            OffsetsColumn::EliasFano(EfOffsets::with_capacity(size))
        } else {
            OffsetsColumn::Packed(PackedColumn::with_capacity(size.len, size.last))
        }
    }

    /// The column of `values`, in the encoding their size chooses; packed
    /// when they descend anywhere, which no cumulative column does.
    pub fn from_values(values: &[u32]) -> Self {
        let last = values.last().copied().unwrap_or(0);
        if !values.is_sorted() {
            return OffsetsColumn::Packed(PackedColumn::from_values(values));
        }
        let mut column = OffsetsColumn::with_capacity(OffsetsSize::new(values.len(), last));
        values.iter().for_each(|&v| column.push(v));
        column
    }

    /// Appends a value, at least the one before.
    #[inline]
    pub(crate) fn push(&mut self, v: u32) {
        match self {
            OffsetsColumn::Packed(column) => column.push(v),
            OffsetsColumn::EliasFano(column) => column.push(v),
        }
    }

    /// The number of values appended (or read).
    pub fn len(&self) -> usize {
        match self {
            OffsetsColumn::Packed(column) => column.len(),
            OffsetsColumn::EliasFano(column) => column.written as usize,
        }
    }

    /// True when the column holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the column is one Elias–Fano window.
    pub fn is_elias_fano(&self) -> bool {
        matches!(self, OffsetsColumn::EliasFano(_))
    }

    /// The column as the view every read goes through.
    #[inline]
    pub fn view(&self) -> OffsetsView<'_> {
        match self {
            OffsetsColumn::Packed(column) => OffsetsView::Packed(column.view()),
            OffsetsColumn::EliasFano(column) => OffsetsView::EliasFano(column.view()),
        }
    }

    /// The values in order.
    pub fn values(&self) -> OffsetsIter<'_> {
        self.view().values()
    }

    /// Heap bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            OffsetsColumn::Packed(column) => column.heap_bytes(),
            OffsetsColumn::EliasFano(column) => column.heap_bytes(),
        }
    }
}

/// A borrowed cumulative offsets column, either encoding. `Copy`.
#[derive(Clone, Copy, Debug)]
pub enum OffsetsView<'a> {
    /// Bit-packed values.
    Packed(PackedView<'a>),
    /// One Elias–Fano window.
    EliasFano(EfOffsetsView<'a>),
}

impl Default for OffsetsView<'_> {
    fn default() -> Self {
        OffsetsView::Packed(PackedView::EMPTY)
    }
}

impl<'a> From<PackedView<'a>> for OffsetsView<'a> {
    fn from(view: PackedView<'a>) -> Self {
        OffsetsView::Packed(view)
    }
}

impl<'a> From<&'a PackedColumn> for OffsetsView<'a> {
    fn from(column: &'a PackedColumn) -> Self {
        OffsetsView::Packed(column.view())
    }
}

impl<'a> From<&'a OffsetsColumn> for OffsetsView<'a> {
    fn from(column: &'a OffsetsColumn) -> Self {
        column.view()
    }
}

/// Equal images: the same encoding, bytes and length.
impl PartialEq for OffsetsView<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (OffsetsView::Packed(a), OffsetsView::Packed(b)) => a == b,
            (OffsetsView::EliasFano(a), OffsetsView::EliasFano(b)) => {
                (a.len, a.stream, a.selects) == (b.len, b.stream, b.selects)
            }
            _ => false,
        }
    }
}

impl<'a> OffsetsView<'a> {
    /// The number of values.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            OffsetsView::Packed(v) => v.len(),
            OffsetsView::EliasFano(v) => v.len,
        }
    }

    /// True when the column holds no value.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Value `i`; 0 past the end or where a corrupt window cannot read it.
    #[inline]
    pub fn get(self, i: usize) -> u32 {
        match self {
            OffsetsView::Packed(v) => v.get(i),
            OffsetsView::EliasFano(v) => v.get(i).unwrap_or(0),
        }
    }

    /// Values `i` and `i + 1`, the bounds of window `i` of the column this
    /// one cuts, or `None` past the column: one pair read when packed, a
    /// select and a scan to the next set bit when coded.
    #[inline]
    pub fn pair(self, i: usize) -> Option<(u32, u32)> {
        match self {
            OffsetsView::Packed(v) => (i.checked_add(1)? < v.len()).then(|| v.pair(i)),
            OffsetsView::EliasFano(v) => v.pair(i),
        }
    }

    /// The values in order, decoded sequentially.
    #[inline]
    pub fn values(self) -> OffsetsIter<'a> {
        match self {
            OffsetsView::Packed(v) => OffsetsIter::Packed(v.values()),
            OffsetsView::EliasFano(v) => OffsetsIter::EliasFano(v.values()),
        }
    }

    /// True when the column is one Elias–Fano window.
    pub fn is_elias_fano(self) -> bool {
        matches!(self, OffsetsView::EliasFano(_))
    }

    /// Checks, in one decode, that the values never descend and that the
    /// column is their canonical column in the encoding their size
    /// chooses ([`OffsetsColumn::from_values`]'s image), or says why not,
    /// naming `what`. What the values owe the column they cut is the
    /// caller's.
    pub fn check(self, what: &str) -> Result<(), String> {
        let mut check = OffsetsCheck::new(self);
        while check.next().is_some() {}
        check.finish(what)
    }
}

/// The values of an [`OffsetsView`], in order.
#[derive(Clone, Debug)]
pub enum OffsetsIter<'a> {
    /// A packed column's.
    Packed(packed::Iter<'a>),
    /// An Elias–Fano window's.
    EliasFano(EfIter<'a>),
}

impl Iterator for OffsetsIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            OffsetsIter::Packed(it) => it.next(),
            OffsetsIter::EliasFano(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            OffsetsIter::Packed(it) => it.size_hint(),
            OffsetsIter::EliasFano(it) => it.size_hint(),
        }
    }
}

/// A one-pass check of a cumulative offsets column, whose values the walk
/// over the column it cuts reads in order ([`OffsetsCheck::next`]); then
/// [`OffsetsCheck::finish`] checks its image: every value read, none
/// below the one before, and the image the canonical one of those values
/// in the encoding their size chooses. The walk checks
/// what the values owe the column they cut.
pub(crate) struct OffsetsCheck<'a> {
    view: OffsetsView<'a>,
    values: OffsetsIter<'a>,
    read: usize,
    last: u32,
    descends: bool,
    /// A coded column's frame, which places each value's one.
    frame: Option<OffsetsFrame>,
    /// No select sample of a coded column found off its value's one.
    sampled: bool,
}

impl<'a> OffsetsCheck<'a> {
    /// Starts a check of `view`.
    pub(crate) fn new(view: OffsetsView<'a>) -> Self {
        let frame = match view {
            OffsetsView::EliasFano(ef) => ef.frame(),
            OffsetsView::Packed(_) => None,
        };
        let values = view.values();
        OffsetsCheck { view, values, read: 0, last: 0, descends: false, frame, sampled: true }
    }

    /// The next value, `None` once the column (or a corrupt window of it)
    /// has no more.
    #[inline]
    pub(crate) fn next(&mut self) -> Option<u32> {
        let v = self.values.next()?;
        self.descends |= v < self.last;
        if let (OffsetsView::EliasFano(ef), Some(f)) = (self.view, &self.frame) {
            self.sampled &= ef.samples_at(f, self.read, v);
        }
        (self.read, self.last) = (self.read + 1, v);
        Some(v)
    }

    /// Checks the image once every value is read, naming `what`.
    pub(crate) fn finish(self, what: &str) -> Result<(), String> {
        if self.read != self.view.len() || self.descends {
            return Err(format!("{what} does not hold its {} ascending values", self.view.len()));
        }
        let coded = OffsetsSize::new(self.read, self.last).elias_fano();
        match self.view {
            OffsetsView::Packed(v) if !coded => v.validate().map_err(|e| format!("{what}: {e}")),
            OffsetsView::EliasFano(v) if coded => v.check(self.read, self.last, self.sampled, what),
            _ => Err(format!("{what} is not in the encoding its size chooses")),
        }
    }
}

// ---------------------------------------------------------------------
// One vector-key column, either encoding.
// ---------------------------------------------------------------------

/// An ordering's vector keys: bit-packed, or Elias–Fano coded window by
/// window — whichever its `KeySize` says is smaller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KeyColumn {
    /// Every key at the width of the largest ([`crate::packed`]).
    Packed(PackedColumn),
    /// Each window Elias–Fano coded.
    EliasFano(EfColumn),
}

impl Default for KeyColumn {
    fn default() -> Self {
        KeyColumn::Packed(PackedColumn::default())
    }
}

impl KeyColumn {
    /// An empty column of the encoding `size` chooses, with exact room.
    pub(crate) fn with_capacity(size: KeySize) -> Self {
        if size.elias_fano() {
            KeyColumn::EliasFano(EfColumn::with_capacity(size))
        } else {
            KeyColumn::Packed(PackedColumn::with_capacity(size.keys, size.max_key))
        }
    }

    /// The column of `keys` windowed by `offs` — a cumulative offsets
    /// column that tiles them into non-empty windows, each strictly
    /// ascending — in the encoding their sizes choose.
    pub fn of_windows<'o>(keys: &[u32], offs: impl Into<OffsetsView<'o>>) -> Self {
        let offs = offs.into();
        let mut column = KeyColumn::with_capacity(KeySize::of_windows(keys, windows_of(offs)));
        for w in windows_of(offs) {
            keys[w].iter().for_each(|&k| column.push(k));
            column.end_window();
        }
        column
    }

    /// Appends a key to the open window.
    #[inline]
    pub(crate) fn push(&mut self, k: u32) {
        match self {
            KeyColumn::Packed(column) => column.push(k),
            KeyColumn::EliasFano(column) => column.push(k),
        }
    }

    /// Closes the open window.
    #[inline]
    pub(crate) fn end_window(&mut self) {
        if let KeyColumn::EliasFano(column) = self {
            column.end_window();
        }
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        match self {
            KeyColumn::Packed(column) => column.len(),
            KeyColumn::EliasFano(column) => column.len(),
        }
    }

    /// True when the column holds no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column as the view every read goes through.
    #[inline]
    pub fn view(&self) -> KeysView<'_> {
        match self {
            KeyColumn::Packed(column) => KeysView::Packed(column.view()),
            KeyColumn::EliasFano(column) => KeysView::EliasFano(column.view()),
        }
    }

    /// The column as a terminal list borrows it.
    #[inline]
    pub fn borrowed(&self) -> KeysRef<'_> {
        match self {
            KeyColumn::Packed(column) => KeysRef::Packed(column.view()),
            KeyColumn::EliasFano(column) => KeysRef::EliasFano(column),
        }
    }

    /// Heap bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            KeyColumn::Packed(column) => column.heap_bytes(),
            KeyColumn::EliasFano(column) => KeyColumn::ef_heap_bytes(column),
        }
    }

    /// Heap bytes of an Elias–Fano column's four parts.
    fn ef_heap_bytes(c: &EfColumn) -> usize {
        c.base_bytes() + c.offset_bytes() + c.stream_bytes() + c.rank_bytes()
    }

    /// Checks that `read` is the image of the column its windows decode
    /// to, in the encoding their sizes choose, or says why it is not,
    /// naming `what`: offsets that do not tile it, a window that decodes to
    /// fewer keys or keys that do not ascend, another encoding than the
    /// sizes choose, or a part that is not the canonical one (the packed
    /// image, or the base, bit-offset, stream or rank column). Each window
    /// is decoded once (`KeyCheck`).
    pub fn check<'o>(
        read: KeysView<'_>,
        offs: impl Into<OffsetsView<'o>>,
        what: &str,
    ) -> Result<(), String> {
        let offs = offs.into();
        let tiling = || format!("the offsets do not tile the {} {what}", read.len());
        let mut cuts = offs.values();
        if cuts.next() != Some(0) {
            return Err(tiling());
        }
        let mut keys = KeyCheck::new(read, what)?;
        let (mut start, mut windows) = (0, 0);
        for end in cuts {
            let end = end as usize;
            if end <= start || end > read.len() {
                return Err(tiling());
            }
            keys.window(windows, start..end)?;
            (start, windows) = (end, windows + 1);
        }
        if start != read.len() {
            return Err(tiling());
        }
        keys.finish(windows)
    }
}

/// A one-pass check of a key column windowed by a cumulative offsets
/// column, whose walk hands it each window in order
/// ([`KeyCheck::window`]): every window is decoded once, into a buffer the
/// walk reads the keys from, and checked to hold its length of strictly
/// ascending keys — an Elias–Fano window, also to take the bits and the
/// `l` its keys make, which leaves its bits no other image. Then
/// [`KeyCheck::finish`] checks what the windows leave: the encoding the
/// sizes choose, and the column's other parts canonical (the packed
/// image; or the base column, the bit-offset column — read in order with
/// the windows — the stream's length and tail, and its rank directory).
pub(crate) struct KeyCheck<'a> {
    read: KeysView<'a>,
    what: &'a str,
    size: KeySize,
    keys: Vec<u32>,
    /// An Elias–Fano column's bit offsets, and where the next window's
    /// bits start.
    bits: Option<(OffsetsCheck<'a>, usize)>,
}

impl<'a> KeyCheck<'a> {
    /// Starts a check of `read`, naming it `what`.
    pub(crate) fn new(read: KeysView<'a>, what: &'a str) -> Result<Self, String> {
        let bits = match read {
            KeysView::Packed(_) => None,
            KeysView::EliasFano(ef) => {
                let mut offs = OffsetsCheck::new(ef.offs);
                if offs.next() != Some(0) {
                    return Err(format!("{what}'s bit-offset column does not start at 0"));
                }
                Some((offs, 0))
            }
        };
        Ok(KeyCheck { read, what, size: KeySize::default(), keys: Vec::new(), bits })
    }

    /// Decodes window `h`, the keys `window` of the column, and checks it;
    /// its keys, in order.
    pub(crate) fn window(&mut self, h: usize, window: Range<usize>) -> Result<&[u32], String> {
        let (what, n) = (self.what, window.len());
        if n == 0 {
            return Err(format!("{what}: window {h} is empty"));
        }
        self.keys.clear();
        // Keys are pushed as they decode, and the decode stops at the first
        // that does not ascend: the buffer never outgrows what the bits
        // hold, whatever length a corrupt count claims.
        let descends = |keys: &mut Vec<u32>, decoded: &mut dyn Iterator<Item = u32>| {
            for k in decoded {
                if keys.last().is_some_and(|&last| k <= last) {
                    return true;
                }
                keys.push(k);
            }
            false
        };
        let descended = match self.read {
            KeysView::Packed(v) => {
                if window.end > v.len() {
                    return Err(format!("the offsets do not tile the {} {what}", v.len()));
                }
                descends(&mut self.keys, &mut v.iter(window))
            }
            KeysView::EliasFano(ef) => {
                let (offs, start) = self.bits.as_mut().expect("an Elias–Fano column's offsets");
                let end = offs.next().map(|end| end as usize);
                let end = end
                    .filter(|&end| end >= *start)
                    .ok_or_else(|| format!("{what}'s bit-offset column does not cut window {h}"))?;
                let f = ef.frame_at(ef.base.get(h), n, *start..end);
                let descended = descends(&mut self.keys, &mut ef.iter_frame(f, true));
                let (first, last) = (f.first, self.keys.last().copied().unwrap_or(f.first));
                let canonical = if n < 2 {
                    end == *start
                } else {
                    f.m == n - 1
                        && f.l == ef_l(f.m, last.wrapping_sub(first))
                        && end - *start == ef_window_bits(n, Id(first), Id(last))
                };
                *start = end;
                if !canonical && !descended && self.keys.len() == n {
                    return Err(format!("{what}: window {h} is not the code of its keys"));
                }
                descended
            }
        };
        if descended {
            return Err(format!("{what}: window {h} does not ascend"));
        }
        if self.keys.len() != n {
            return Err(format!("{what}: window {h} decodes to fewer keys than it has"));
        }
        let (first, last) = (self.keys[0], self.keys[n - 1]);
        self.size.add(n, Id(first), Id(last));
        Ok(&self.keys)
    }

    /// Checks what the `windows` windows, all read, leave: the encoding
    /// the sizes choose, and the column's other parts.
    pub(crate) fn finish(self, windows: usize) -> Result<(), String> {
        let what = self.what;
        if self.size.elias_fano() != matches!(self.read, KeysView::EliasFano(_)) {
            return Err(format!("{what} is not in the encoding its sizes choose"));
        }
        match (self.read, self.bits) {
            (KeysView::Packed(v), _) => v.validate().map_err(|e| format!("{what}: {e}")),
            (KeysView::EliasFano(ef), Some((offs, end))) => {
                if ef.base.len() != windows || ef.base.validate().is_err() {
                    return Err(format!("{what}'s base column is not canonical"));
                }
                offs.finish(&format!("{what}'s bit-offset column"))?;
                let stream = ef.stream;
                if stream.len() != end
                    || stream.bits.width() != u32::from(end > 0)
                    || stream.bits.validate_tail().is_err()
                {
                    return Err(format!(
                        "{what}'s stream is not the canonical stream of what it decodes to"
                    ));
                }
                stream.check_ranks(&format!("{what}'s stream"))
            }
            (KeysView::EliasFano(_), None) => unreachable!("an Elias–Fano check reads offsets"),
        }
    }
}

/// A key column as a terminal list borrows it: a packed column's view,
/// derived once when the list is handed out, or an Elias–Fano column,
/// whose view each read derives — small enough for a
/// [`List`](crate::slab::List) to carry. `Copy`.
#[derive(Clone, Copy, Debug)]
pub enum KeysRef<'a> {
    /// Bit-packed keys.
    Packed(PackedView<'a>),
    /// Elias–Fano windows.
    EliasFano(&'a EfColumn),
}

impl<'a> KeysRef<'a> {
    /// The column as the view every read goes through.
    #[inline]
    pub fn view(self) -> KeysView<'a> {
        match self {
            KeysRef::Packed(v) => KeysView::Packed(v),
            KeysRef::EliasFano(column) => KeysView::EliasFano(column.view()),
        }
    }

    /// The number of keys.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            KeysRef::Packed(v) => v.len(),
            KeysRef::EliasFano(column) => column.len(),
        }
    }

    /// True when the column holds no key.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// A borrowed vector-key column, either encoding. `Copy`. Reads take the
/// window's header number `h` (an Elias–Fano window is addressed by it)
/// and its leaf range (a packed window by that).
#[derive(Clone, Copy, Debug)]
pub enum KeysView<'a> {
    /// Bit-packed keys.
    Packed(PackedView<'a>),
    /// Elias–Fano windows.
    EliasFano(EfView<'a>),
}

impl Default for KeysView<'_> {
    fn default() -> Self {
        KeysView::Packed(PackedView::EMPTY)
    }
}

impl<'a> KeysView<'a> {
    /// The number of keys.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            KeysView::Packed(v) => v.len(),
            KeysView::EliasFano(v) => v.len,
        }
    }

    /// True when the column holds no key.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Key `i` of window `h`, whose leaves are `window`, or `None` past
    /// the window or the column.
    #[inline]
    pub fn get(self, h: usize, window: Range<usize>, i: usize) -> Option<u32> {
        match self {
            KeysView::Packed(v) => {
                let at = window.start + i;
                (i < window.len() && at < v.len()).then(|| v.get(at))
            }
            KeysView::EliasFano(v) => v.get(h, window, i),
        }
    }

    /// The keys of window `h`, whose leaves are `window`, in order.
    #[inline]
    pub fn iter(self, h: usize, window: Range<usize>) -> KeyIter<'a> {
        match self {
            KeysView::Packed(v) => KeyIter::Packed(v.iter(window)),
            KeysView::EliasFano(v) => KeyIter::EliasFano(v.iter(h, window)),
        }
    }

    /// Searches `x` in window `h`: what `slice::binary_search` returns on
    /// the window's keys, positions relative to its start.
    #[inline]
    pub fn search(self, h: usize, window: Range<usize>, x: u32) -> Result<usize, usize> {
        match self {
            KeysView::Packed(v) => v.search(window, x),
            KeysView::EliasFano(v) => v.search(h, window, x),
        }
    }

    /// The position in window `h` of the first key at or after `from`
    /// that is at least `x`, the keys before `from` being below `x`.
    #[inline]
    pub fn seek(self, h: usize, window: Range<usize>, from: usize, x: u32) -> usize {
        match self {
            KeysView::Packed(v) => v.seek(window, from, x),
            KeysView::EliasFano(v) => v.seek(h, window, from, x),
        }
    }
}

/// The keys of one window of a [`KeysView`], in order.
#[derive(Clone, Debug)]
pub enum KeyIter<'a> {
    /// A packed window.
    Packed(packed::Iter<'a>),
    /// An Elias–Fano window.
    EliasFano(EfIter<'a>),
}

impl Iterator for KeyIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            KeyIter::Packed(it) => it.next(),
            KeyIter::EliasFano(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            KeyIter::Packed(it) => it.size_hint(),
            KeyIter::EliasFano(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for KeyIter<'_> {}
