//! Succinct index levels: the header keys of an ordering as a presence
//! bitmap with a rank directory (or one Elias–Fano window), and its
//! vector keys, window by window, as Elias–Fano codes — each where that is
//! smaller than the alternative.
//!
//! Both are bit streams in the [`crate::packed`] framing — a column of
//! width 1, one value a bit, the little-endian words followed by a zero
//! word — with a **rank directory** beside them: one sample per
//! [`RANK_BLOCK`] bits after the first block, the number of set bits
//! before the block, packed at the bit length of the stream's length. A
//! rank is a sample and at most eight word popcounts; a select is a
//! binary search of the samples and a scan of one block.
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
//! (Elias–Fano's NextGEQ), and iteration decodes the high region word by
//! word.
//!
//! A writer chooses, per ordering, the smaller encoding of its header
//! keys and of its vector keys from counts alone (`HeaderSize`,
//! `KeySize`), so the bulk builder sizes either exactly before it writes
//! a key.
//!
//! Reads never panic and never scan past their window: a mapped column
//! may be corrupt, and an offset past the stream, an `l` whose low parts
//! overrun the window, a high region that never reaches its `m`-th one or
//! a rank sample that disagrees with its bits all give a short window or
//! an absent header. In-memory columns are built canonical, and the eager
//! loader compares each column it reads with the one rebuilt from what it
//! decodes to ([`HeaderColumn::check`], [`KeyColumn::check`]).

use crate::packed::{self, bytes_for, width_of, Bytes, PackedColumn, PackedView};
use hex_dict::Id;
use std::ops::Range;

/// Bits per rank-directory block.
pub const RANK_BLOCK: usize = 512;

/// Bits of an Elias–Fano window's `l` field.
const L_BITS: usize = 5;

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
/// than `k`.
#[inline]
fn select_in_word(x: u64, mut k: u32) -> u32 {
    let mut shift = 0;
    loop {
        let ones = ((x >> shift) & 0xFF).count_ones();
        if k < ones || shift == 56 {
            break;
        }
        k -= ones;
        shift += 8;
    }
    let mut byte = (x >> shift) & 0xFF;
    for _ in 0..k {
        byte &= byte.wrapping_sub(1);
    }
    shift + byte.trailing_zeros().min(8)
}

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
    /// `bit`, or `None` when that range holds no more than `r`. The
    /// directory picks the block, and only that block is scanned: a sample
    /// that disagrees with the bits gives a wrong position or `None`, never
    /// a longer scan.
    fn select(self, from: usize, end: usize, r: usize, bit: bool) -> Option<usize> {
        let end = end.min(self.len());
        if from >= end {
            return None;
        }
        if end - from <= RANK_BLOCK {
            // A range no longer than a block is scanned directly.
            return self.scan(from, end, r, bit);
        }
        let base = self.rank1(from);
        // Bits equal to `bit` in `from..s` for the block start `s` after
        // `from`.
        let hits_to = |block: usize| {
            let s = block * RANK_BLOCK;
            let ones = self.ones_before(block).saturating_sub(base);
            if bit {
                ones
            } else {
                (s - from).saturating_sub(ones)
            }
        };
        let (mut lo, mut hi) = (from / RANK_BLOCK, (end - 1) / RANK_BLOCK);
        // The last block whose start has at most `r` hits before it.
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

/// A bit stream with its rank directory, appended in order into room
/// sized exactly up front — or a snapshot's image, read or a window of a
/// mapped file's bytes, which an append copies to owned bytes first.
#[derive(Clone, Default)]
struct BitStream {
    bytes: Bytes,
    bits: usize,
    /// Set bits: counted as they are appended; a loaded header bitmap's
    /// declared key count, and 0 for a loaded Elias–Fano stream, which
    /// does not read it.
    ones: usize,
    ranks: PackedColumn,
}

/// Equal bits and directories: the set bits follow from the bits.
impl PartialEq for BitStream {
    fn eq(&self, other: &Self) -> bool {
        (self.bits, &self.bytes, &self.ranks) == (other.bits, &other.bytes, &other.ranks)
    }
}

impl Eq for BitStream {}

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
            ones: 0,
            ranks: PackedColumn::with_width(samples(bits), sample_width(bits)),
        }
    }

    /// Appends the low `width` bits of `value` (`width` at most 64),
    /// sampling the directory at every block start they cross.
    fn put(&mut self, value: u64, width: usize) {
        if width == 0 {
            return;
        }
        let end = self.bits + width;
        let mut block = self.bits.div_ceil(RANK_BLOCK).max(1) * RANK_BLOCK;
        while block < end {
            let below = value & low_mask(block - self.bits);
            self.ranks.push((self.ones + below.count_ones() as usize) as u32);
            block += RANK_BLOCK;
        }
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
        self.ones += value.count_ones() as usize;
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

    fn view(&self) -> BitsView<'_> {
        let width = u32::from(self.bits > 0);
        let bytes: &[u8] = if self.bits == 0 { &[] } else { &self.bytes };
        BitsView {
            bits: PackedView::new(bytes, width, self.bits).unwrap_or_default(),
            ranks: self.ranks.view(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes() + self.ranks.heap_bytes()
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
        f.debug_struct("BitStream").field("bits", &self.bits).field("ones", &self.ones).finish()
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
pub struct RankBitmap(BitStream);

impl RankBitmap {
    /// An empty bitmap with exact room for keys up to `max`.
    ///
    /// # Panics
    ///
    /// If `max` is `u32::MAX`: the bitmap would need 2^32 bits.
    pub fn with_capacity(max: Option<Id>) -> Self {
        RankBitmap(BitStream::with_capacity(max.map_or(0, |m| m.0 as usize + 1)))
    }

    /// Appends key `k`, which must be above every key before it.
    pub fn push(&mut self, k: Id) {
        let k = k.0 as usize;
        debug_assert!(k >= self.0.bits, "header keys ascend");
        self.0.put_zeros(k - self.0.bits);
        self.0.put(1, 1);
    }

    /// The bitmap of `keys` keys over a `len`-bit stream whose image is
    /// `bits`, with the rank directory `ranks`: a snapshot's columns, read
    /// or mapped, taken as they are. Reads clamp to them, so columns that
    /// are not the canonical ones give wrong answers, never a panic.
    pub(crate) fn unchecked(bits: Bytes, len: usize, ranks: PackedColumn, keys: usize) -> Self {
        RankBitmap(BitStream { bytes: bits, bits: len, ones: keys, ranks })
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
        BitmapView { bits: self.0.view(), ones: self.0.ones }
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.0.ones
    }

    /// True when the bitmap holds no key.
    pub fn is_empty(&self) -> bool {
        self.0.ones == 0
    }

    /// Heap bytes: the bits and the directory.
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
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
                if column.len() == column.room {
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
                if mine.0.bits != read.bits.len() {
                    return Err(format!("{what} does not end at its largest key"));
                }
                mine.0.differs(read.bits, what).map_or(Ok(()), Err)
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

    /// The heap bytes of the Elias–Fano column: base, bit offsets, stream
    /// and its directory.
    pub(crate) fn ef_bytes(&self) -> usize {
        let Ok(bits) = u32::try_from(self.bits) else { return usize::MAX };
        let stream = if bits == 0 { 0 } else { bytes_for(self.bits, 1).unwrap_or(usize::MAX) };
        let parts = [
            bytes_for(self.windows, width_of(self.max_first)),
            bytes_for(self.windows + 1, width_of(bits)),
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
    pub offs: PackedView<'a>,
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

impl<'a> EfView<'a> {
    /// The frame of window `h`, which holds `n` keys: a window whose bits
    /// cannot hold its `l` and low parts is its first key alone.
    #[inline]
    fn frame(self, h: usize, n: usize) -> Frame {
        let first = self.base.get(h);
        let single = Frame { first, m: 0, l: 0, low_at: 0, high_at: 0, end: 0 };
        if n < 2 {
            return single;
        }
        let (start, end) = (self.offs.get(h) as usize, self.offs.get(h + 1) as usize);
        let end = end.min(self.stream.len());
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
        let f = self.frame(h, window.len());
        let Some(j) = i.checked_sub(1) else { return Some(f.first) };
        if j >= f.m {
            return None;
        }
        // The clear bits before the key's one are its high part.
        let one = self.stream.select(f.high_at, f.end, j, true)?;
        let high = (one - f.high_at).saturating_sub(j) as u32;
        Some(f.first.wrapping_add(1).wrapping_add(high.wrapping_shl(f.l) | self.low(&f, j)))
    }

    /// The keys of window `h`, whose leaves are `window`, in order.
    #[inline]
    pub fn iter(self, h: usize, window: Range<usize>) -> EfIter<'a> {
        let f = self.frame(h, window.len());
        let bytes = self.stream.bytes();
        let first_word = if f.m == 0 { 0 } else { word(bytes, f.high_at / 64) };
        EfIter {
            bytes,
            head: (!window.is_empty()).then_some(f.first),
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
        let f = self.frame(h, window.len());
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
            match self.stream.select(f.high_at, f.end, hx - 1, false) {
                Some(zero) => zero + 1,
                None => return Err(1 + f.m),
            }
        };
        let ones_to = |at: usize| (at - f.high_at).saturating_sub(hx).min(f.m);
        let (j0, j1) = (ones_to(start), ones_to(self.stream.next_zero(start, f.end)));
        let (mut lo, mut hi) = (j0, j1.max(j0));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.low(&f, mid) < lx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < j1 && self.low(&f, lo) == lx {
            Ok(1 + lo)
        } else {
            Err(1 + lo)
        }
    }

    /// The position in window `h` of its first key at or after `from`
    /// that is at least `x` — `window.len()` if there is none — where the
    /// keys before `from` are below `x`: Elias–Fano's NextGEQ, which is
    /// [`EfView::search`] for `x` and so costs the same however far it
    /// advances.
    #[inline]
    pub fn seek(self, h: usize, window: Range<usize>, from: usize, x: u32) -> usize {
        let n = window.len();
        let (Ok(at) | Err(at)) = self.search(h, window, x);
        at.max(from).min(n)
    }
}

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
    offs: PackedColumn,
    stream: BitStream,
    len: u32,
    /// The windows and keys the column was sized for.
    windows: usize,
    room: usize,
    open: Vec<u32>,
}

impl EfColumn {
    /// An empty column with exact room for what `size` counted.
    pub(crate) fn with_capacity(size: KeySize) -> Self {
        let bits = u32::try_from(size.bits).expect("bit stream overflow: 2^32 bits");
        let mut offs = PackedColumn::with_capacity(size.windows + 1, bits);
        offs.push(0);
        EfColumn {
            base: PackedColumn::with_capacity(size.windows, size.max_first),
            offs,
            stream: BitStream::with_capacity(size.bits),
            len: 0,
            windows: size.windows,
            room: size.keys,
            open: Vec::new(),
        }
    }

    /// Appends a key to the open window.
    #[inline]
    pub(crate) fn push(&mut self, k: u32) {
        self.open.push(k);
        self.len += 1;
    }

    /// Closes the open window, which holds at least one key.
    pub(crate) fn end_window(&mut self) {
        let keys = std::mem::take(&mut self.open);
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
        if self.base.len() < self.windows {
            self.open = keys;
            self.open.clear();
        }
    }

    /// The column of `len` keys whose windows' first keys are `base`, whose
    /// windows' bit offsets are `offs`, and whose `bits`-bit stream's image
    /// and rank directory are `stream` and `ranks`: a snapshot's columns,
    /// read or mapped, taken as they are. Reads clamp to them, so columns
    /// that are not the canonical ones give wrong answers, never a panic.
    pub(crate) fn unchecked(
        base: PackedColumn,
        offs: PackedColumn,
        (stream, bits): (Bytes, usize),
        ranks: PackedColumn,
        len: u32,
    ) -> Self {
        EfColumn {
            windows: base.len(),
            room: len as usize,
            base,
            offs,
            stream: BitStream { bytes: stream, bits, ones: 0, ranks },
            len,
            open: Vec::new(),
        }
    }

    /// The Elias–Fano column of `keys` windowed by `offs` — a tiling
    /// cumulative offsets column, each window strictly ascending —
    /// whatever the packed column would take.
    pub fn from_windows(keys: &[u32], offs: &PackedColumn) -> Self {
        let mut column =
            EfColumn::with_capacity(KeySize::of_windows(keys, windows_of(offs.view())));
        for w in windows_of(offs.view()) {
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

    /// [`EfView::get`] on the column's view, out of line.
    #[inline(never)]
    pub fn get(&self, h: usize, window: Range<usize>, i: usize) -> Option<u32> {
        self.view().get(h, window, i)
    }

    /// [`EfView::search`] on the column's view, out of line.
    #[inline(never)]
    pub fn search(&self, h: usize, window: Range<usize>, x: u32) -> Result<usize, usize> {
        self.view().search(h, window, x)
    }

    /// [`EfView::seek`] on the column's view, out of line.
    #[inline(never)]
    pub fn seek(&self, h: usize, window: Range<usize>, from: usize, x: u32) -> usize {
        self.view().seek(h, window, from, x)
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

    /// Heap bytes of the stream's bits.
    pub fn stream_bytes(&self) -> usize {
        self.stream.bytes.heap_bytes()
    }

    /// Heap bytes of the stream's rank directory.
    pub fn rank_bytes(&self) -> usize {
        self.stream.ranks.heap_bytes()
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

/// The windows of a cumulative offsets column.
pub(crate) fn windows_of(offs: PackedView<'_>) -> impl Iterator<Item = Range<usize>> + '_ {
    offs.values().zip(offs.values().skip(1)).map(|(lo, hi)| lo as usize..hi as usize)
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
    pub fn of_windows(keys: &[u32], offs: &PackedColumn) -> Self {
        let mut column =
            KeyColumn::with_capacity(KeySize::of_windows(keys, windows_of(offs.view())));
        for w in windows_of(offs.view()) {
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
    /// sizes choose, or a part whose bytes differ (the packed image, or the
    /// base, bit-offset, stream or rank column).
    pub fn check(read: KeysView<'_>, offs: PackedView<'_>, what: &str) -> Result<(), String> {
        let size = KeyColumn::checked_size(read, offs, what)?;
        match read {
            KeysView::Packed(view) if !size.elias_fano() => {
                view.validate().map_err(|e| format!("{what}: {e}"))
            }
            KeysView::EliasFano(view) if size.elias_fano() => {
                let mut column = EfColumn::with_capacity(size);
                for (h, window) in windows_of(offs).enumerate() {
                    read.iter(h, window).for_each(|k| column.push(k));
                    column.end_window();
                }
                column.differs(view, what).map_or(Ok(()), Err)
            }
            _ => Err(format!("{what} is not in the encoding its sizes choose")),
        }
    }

    /// The sizes of `read`'s windows, checking in one decode that `offs`
    /// tiles it into non-empty windows and that each window decodes to its
    /// length of strictly ascending keys.
    fn checked_size(
        read: KeysView<'_>,
        offs: PackedView<'_>,
        what: &str,
    ) -> Result<KeySize, String> {
        let tiles = offs.get(0) == 0
            && offs.get(offs.len().saturating_sub(1)) as usize == read.len()
            && windows_of(offs).all(|w| !w.is_empty());
        if offs.is_empty() || !tiles {
            return Err(format!("the offsets do not tile the {} {what}", read.len()));
        }
        let mut size = KeySize::default();
        for (h, window) in windows_of(offs).enumerate() {
            let mut keys = read.iter(h, window.clone());
            let first = keys.next().unwrap_or(0);
            let (mut last, mut n) = (first, 1);
            for k in keys {
                if k <= last {
                    return Err(format!("{what}: window {h} does not ascend"));
                }
                (last, n) = (k, n + 1);
            }
            if n != window.len() {
                return Err(format!("{what}: window {h} decodes to fewer keys than it has"));
            }
            size.add(n, Id(first), Id(last));
        }
        Ok(size)
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

    /// Key `i` of window `h`, whose leaves are `window`, or `None` past
    /// the window: a packed window read in place, an Elias–Fano one out of
    /// line ([`EfColumn::get`]), so that a list's packed path stays small
    /// enough to inline into its caller.
    #[inline]
    pub fn get(self, h: usize, window: Range<usize>, i: usize) -> Option<u32> {
        match self {
            KeysRef::Packed(v) => (i < window.len()).then(|| v.get(window.start + i)),
            KeysRef::EliasFano(column) => column.get(h, window, i),
        }
    }

    /// [`KeysView::search`], as [`KeysRef::get`] reads.
    #[inline]
    pub fn search(self, h: usize, window: Range<usize>, x: u32) -> Result<usize, usize> {
        match self {
            KeysRef::Packed(v) => v.search(window, x),
            KeysRef::EliasFano(column) => column.search(h, window, x),
        }
    }

    /// [`KeysView::seek`], as [`KeysRef::get`] reads.
    #[inline]
    pub fn seek(self, h: usize, window: Range<usize>, from: usize, x: u32) -> usize {
        match self {
            KeysRef::Packed(v) => v.seek(window, from, x),
            KeysRef::EliasFano(column) => column.seek(h, window, from, x),
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
