//! Bit-packed integer columns: the encoding of every integer column of
//! the dictionary and of the frozen store's index levels.
//!
//! Few integer columns need all of a `u32`. A frozen ordering's vector
//! keys are term ids below the dictionary's size, its offsets and list
//! references are below the ordering's leaf count; a dictionary's term
//! heads hold a kind and a prefix id, its term ends are below its arena's
//! length, and a reverse-index slot holds a term id below the table's
//! size. A [`PackedColumn`] stores each value in `w` bits, `w` the bit
//! length of the column's largest value, so on a dataset of 107k terms a
//! vector key takes 17 bits instead of 32.
//!
//! Value `i` occupies bits `i·w .. i·w + w` of a little-endian bit stream:
//! bit `b` is bit `b % 8` of byte `b / 8`. The stream is padded with zero
//! bits to a whole number of 64-bit words and followed by one more zero
//! word, `8·(⌈len·w / 64⌉ + 1)` bytes (none for a column of width 0), so a
//! column has one image and equal columns are equal bytes. The same bytes
//! are the `hexsnap` `FROZ` columns (v6 on, list slots v7 on) and `DICT`
//! columns (v10 on), which `hex-disk` maps in place; [`PackedView`] is
//! the one reader of both.
//!
//! A read is one unaligned 8-byte load, a shift and a mask: a value of at
//! most 32 bits starts in some byte at a bit offset below 8, so it lies in
//! the 8 bytes from there, and the trailing zero word keeps those 8 bytes
//! inside the column for the last value too.
//!
//! A column whose width is fixed up front (a slot or rank column) is
//! appended to by [`PackedColumn::push`], which panics on a value that
//! does not fit, so a mis-sized column fails loudly. A column that grows
//! (the dictionary's columns) is
//! appended to by [`PackedColumn::push_widening`], which repacks it at a
//! wider width when a value needs more bits — at most 32 times over a
//! column's life, so appending stays amortised O(1). A column changes in
//! place by [`PackedColumn::set`], within its width: the dictionary's
//! reverse indexes are fixed-width slot tables written that way.
//!
//! A column's bytes are a [`Bytes`]: owned, or a window into
//! [`SharedBytes`] — in practice a memory-mapped snapshot, so a column
//! opened from a file stays in the page cache and pages in on demand.
//! Reads of a shared column are clamped like every read: a provider whose
//! bytes shrank under it reads as the empty column. A write to a shared
//! column first copies it to owned bytes, and equal columns are equal
//! whatever holds their bytes.
//!
//! A terminal-list arena's columns are packed too (`hexastore::slab`): its
//! slot column at a width of its own, one flag bit above the widest
//! value, its run ends, and its run ids where they are not Elias–Fano
//! coded. A longer list read from packed run ids is a window of that
//! column: decoded sequentially by [`PackedView::iter`], searched by
//! [`PackedView::search`], and advanced through by [`PackedView::seek`],
//! the galloping search that intersections and merge joins make with
//! rising targets. The frozen store's header keys and Elias–Fano keys
//! (`hexastore::succinct`) keep their bit streams and rank directories in
//! packed columns too.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// The widest value a packed column holds, in bits.
pub const MAX_WIDTH: u32 = 32;

/// The window length at which [`PackedView::search`] stops halving and
/// counts.
const LINEAR: usize = 16;

/// Why a packed image is not the one canonical image of its values —
/// each a different way a corrupt or hand-built column can be wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackedError {
    /// The declared width is above [`MAX_WIDTH`].
    WidthAbove32(u32),
    /// The bytes are not the `8·⌈len·width / 64⌉` the length needs.
    WrongByteLength {
        /// Bytes a column of this length and width takes.
        expected: usize,
        /// Bytes the image has.
        found: usize,
    },
    /// A bit past the last value is set.
    BitsPastEnd,
    /// A value needs more bits than the column's width.
    ValueTooWide {
        /// The value.
        value: u32,
        /// The column's width.
        width: u32,
    },
    /// The width is wider than the column's largest value needs.
    WidthNotTight {
        /// The declared width.
        width: u32,
        /// The bit length of the largest value.
        needed: u32,
    },
    /// An owned column of 2^32 values or more.
    TooLong(usize),
}

impl std::fmt::Display for PackedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PackedError::WidthAbove32(w) => write!(f, "packed width {w} is above {MAX_WIDTH}"),
            PackedError::WrongByteLength { expected, found } => {
                write!(f, "packed column is {found} bytes where its length needs {expected}")
            }
            PackedError::BitsPastEnd => write!(f, "packed column has bits set past its end"),
            PackedError::ValueTooWide { value, width } => {
                write!(f, "value {value} does not fit a {width}-bit packed column")
            }
            PackedError::WidthNotTight { width, needed } => {
                write!(f, "packed width {width} is wider than the {needed} bits its values need")
            }
            PackedError::TooLong(len) => write!(f, "a packed column of {len} values"),
        }
    }
}

impl std::error::Error for PackedError {}

/// The bit length of `max`: the width of a column whose largest value it
/// is (0 for a column of zeros).
#[inline]
pub fn width_of(max: u32) -> u32 {
    u32::BITS - max.leading_zeros()
}

/// The bytes a column of `len` values of `width` bits takes — the whole
/// 64-bit words its bits need and one zero word after them — or `None`
/// when that overflows `usize`. A column of width 0 takes none.
#[inline]
pub fn bytes_for(len: usize, width: u32) -> Option<usize> {
    if width == 0 {
        return Some(0);
    }
    len.checked_mul(width as usize)?.div_ceil(64).checked_add(1)?.checked_mul(8)
}

/// The value at bit `bit` of `bytes`, masked to `mask`: one load, a shift
/// and a mask, and no branch but the bounds check, so a search over it
/// stays branch-free.
///
/// `bit` must start a value of the column, which every caller guarantees
/// by construction: a view's bytes are exactly the ones its length and
/// width need ([`PackedView::new`]) — the trailing zero word included, so
/// the 8 bytes from any value's first byte are inside them — and reads
/// stay below its length. A column of width 0 has no bytes, and each of
/// its values reads as the 0 an out-of-range load gives.
#[inline(always)]
fn extract(bytes: &[u8], bit: usize, mask: u64) -> u32 {
    (extract_word(bytes, bit) & mask) as u32
}

/// The 64 bits from bit `bit` of `bytes` on, less the up to 7 the load's
/// last byte cuts off; 0 when the 8 bytes from `bit`'s byte are past the
/// end.
#[inline(always)]
fn extract_word(bytes: &[u8], bit: usize) -> u64 {
    let at = bit / 8;
    let word = match bytes.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => 0,
    };
    word >> (bit % 8)
}

/// The mask of a `width`-bit value.
#[inline]
fn mask_of(width: u32) -> u64 {
    (1u64 << width) - 1
}

/// Read-only storage a column can borrow its bytes from instead of
/// owning them: in practice a memory-mapped snapshot.
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// A column's bytes: an owned buffer, or a window into [`SharedBytes`].
///
/// Reads never panic: a window that no longer lies inside its provider's
/// bytes (a provider that shrank after construction) reads as no bytes.
/// [`Bytes::make_mut`] copies a window to an owned buffer before the first
/// write, and two `Bytes` are equal when their contents are, wherever they
/// live.
#[derive(Clone)]
pub struct Bytes(Storage);

#[derive(Clone)]
enum Storage {
    Owned(Vec<u8>),
    Shared(SharedBytes, Range<usize>),
}

impl Bytes {
    /// The window `range` of `bytes`; `None` unless it lies inside them.
    pub fn shared(bytes: SharedBytes, range: Range<usize>) -> Option<Self> {
        let inside = range.start <= range.end && range.end <= (*bytes).as_ref().len();
        inside.then_some(Bytes(Storage::Shared(bytes, range)))
    }

    /// The bytes: an owned buffer's, or a window's — none when the window
    /// has left its provider's bytes.
    #[inline]
    pub fn get(&self) -> &[u8] {
        match &self.0 {
            Storage::Owned(bytes) => bytes,
            Storage::Shared(bytes, range) => window(bytes, range),
        }
    }

    /// The owned buffer, copying a window's bytes into one first.
    #[inline]
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if let Storage::Shared(..) = self.0 {
            self.copy_out();
        }
        match &mut self.0 {
            Storage::Owned(bytes) => bytes,
            Storage::Shared(..) => unreachable!("just copied to an owned buffer"),
        }
    }

    /// Replaces a window by an owned copy of its bytes.
    #[cold]
    #[inline(never)]
    fn copy_out(&mut self) {
        self.0 = Storage::Owned(self.get().to_vec());
    }

    /// True when the bytes are a window into shared storage.
    pub fn is_shared(&self) -> bool {
        matches!(self.0, Storage::Shared(..))
    }

    /// Heap bytes: an owned buffer's capacity. A window's bytes belong to
    /// its provider.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Storage::Owned(bytes) => bytes.capacity(),
            Storage::Shared(..) => 0,
        }
    }

    /// Gives back the room an owned buffer reserved beyond its bytes.
    pub fn shrink_to_fit(&mut self) {
        if let Storage::Owned(bytes) = &mut self.0 {
            bytes.shrink_to_fit();
        }
    }
}

/// The bytes of `range` in shared storage, or none when they lie outside
/// it. Out of line, so that the reads of owned bytes inline.
#[inline(never)]
fn window<'a>(bytes: &'a SharedBytes, range: &Range<usize>) -> &'a [u8] {
    (**bytes).as_ref().get(range.clone()).unwrap_or(&[])
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes(Storage::Owned(Vec::new()))
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(bytes: Vec<u8>) -> Self {
        Bytes(Storage::Owned(bytes))
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.get()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bytes")
            .field("len", &self.len())
            .field("shared", &self.is_shared())
            .finish()
    }
}

/// A borrowed packed column — owned by a [`PackedColumn`] or mapped from
/// a `hexsnap` file. `Copy`, so cursor closures own it outright.
///
/// Reads never panic: an index past the column reads as 0, and a window
/// is clamped to it. In-memory columns are validated when built; a
/// mapped one may change under a reader and must only ever give a wrong
/// answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackedView<'a> {
    bytes: &'a [u8],
    width: u32,
    len: usize,
}

impl<'a> PackedView<'a> {
    /// The empty column.
    pub const EMPTY: PackedView<'static> = PackedView { bytes: &[], width: 0, len: 0 };

    /// A view of `len` values of `width` bits in `bytes`. Checks only what
    /// reading needs and touches no byte: the width is at most
    /// [`MAX_WIDTH`] and `bytes` holds exactly the whole words the values
    /// take and the zero word after them ([`bytes_for`]). [`PackedView::validate`] checks the rest of
    /// what makes an image canonical.
    pub fn new(bytes: &'a [u8], width: u32, len: usize) -> Result<Self, PackedError> {
        if width > MAX_WIDTH {
            return Err(PackedError::WidthAbove32(width));
        }
        let expected = bytes_for(len, width).unwrap_or(usize::MAX);
        if bytes.len() != expected {
            return Err(PackedError::WrongByteLength { expected, found: bytes.len() });
        }
        Ok(PackedView { bytes, width, len })
    }

    /// Number of values.
    #[inline]
    pub fn len(self) -> usize {
        self.len
    }

    /// True when the column holds no value.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    #[inline]
    pub fn width(self) -> u32 {
        self.width
    }

    /// The packed image: the little-endian bit stream, whole words, then
    /// the zero word.
    pub fn bytes(self) -> &'a [u8] {
        self.bytes
    }

    /// Value `i`; 0 past the end.
    #[inline]
    pub fn get(self, i: usize) -> u32 {
        if i >= self.len {
            return 0;
        }
        extract(self.bytes, i * self.width as usize, mask_of(self.width))
    }

    /// Values `i` and `i + 1`, each 0 past the end: the bounds of window
    /// `i + 1` of a cumulative column. One load when both lie in the 8
    /// bytes from value `i`'s first byte, as they always do at up to 28
    /// bits.
    #[inline]
    pub fn pair(self, i: usize) -> (u32, u32) {
        let width = self.width as usize;
        if i >= self.len.saturating_sub(1) || (i * width) % 8 + 2 * width > 64 {
            return (self.get(i), self.get(i.saturating_add(1)));
        }
        let (bit, mask) = (i * width, mask_of(self.width));
        let both = extract_word(self.bytes, bit);
        ((both & mask) as u32, ((both >> width) & mask) as u32)
    }

    /// The window `range`, clamped to the column: an end past it is cut
    /// to it, and a start past the end is the end.
    #[inline]
    fn clamp(self, range: Range<usize>) -> Range<usize> {
        let end = range.end.min(self.len);
        range.start.min(end)..end
    }

    /// The values of `range` in order, decoded sequentially (clamped like
    /// every read).
    #[inline]
    pub fn iter(self, range: Range<usize>) -> Iter<'a> {
        let range = self.clamp(range);
        Iter {
            bytes: self.bytes,
            width: self.width as usize,
            mask: mask_of(self.width),
            bit: range.start * self.width as usize,
            left: range.len(),
        }
    }

    /// Every value in order.
    pub fn values(self) -> Iter<'a> {
        self.iter(0..self.len)
    }

    /// Searches `x` in the values of `window`, which must be strictly
    /// ascending there: `Ok(i)` when value `window.start + i` is `x`, else
    /// `Err(i)` where inserting `x` at `window.start + i` keeps the window
    /// sorted — what `slice::binary_search` returns on the window's
    /// values. The window is clamped to the column.
    ///
    /// Branch-free: it halves the window until at most 16 values are
    /// left, then counts those below `x`. Each halving is a chain of
    /// dependent loads and shifts, so a short window is cheaper to decode
    /// whole than to keep halving.
    #[inline]
    pub fn search(self, window: Range<usize>, x: u32) -> Result<usize, usize> {
        let window = self.clamp(window);
        let (bytes, width, mask) = (self.bytes, self.width as usize, mask_of(self.width));
        let (mut base, mut size) = (window.start, window.len());
        // Values before `base` are below `x`, values from `base + size`
        // on above it.
        while size > LINEAR {
            let half = size / 2;
            // Move to the probe unless it is past `x`, as arithmetic: a
            // branch here would be mispredicted at every other level, and
            // the opaque mask keeps the compiler from making it one.
            let take =
                std::hint::black_box(usize::from(extract(bytes, (base + half) * width, mask) <= x))
                    .wrapping_neg();
            base += half & take;
            size -= half;
        }
        let below: usize = self.iter(base..base + size).map(|v| usize::from(v < x)).sum();
        let at = base + below;
        if below < size && extract(bytes, at * width, mask) == x {
            Ok(at - window.start)
        } else {
            Err(at - window.start)
        }
    }

    /// The position in `window` of the first value at or after `from`
    /// that is at least `x` — `window.len()` if there is none — where the
    /// window's values ascend and those before `from` are below `x`: what
    /// `from + values[from..].partition_point(|&v| v < x)` returns on the
    /// window's values. Positions are relative to the window's start; the
    /// window is clamped to the column and `from` to the window.
    ///
    /// An exponential probe 1, 2, 4, … values past `from` brackets the
    /// answer, then [`PackedView::search`] finds it in the bracket: a seek
    /// that advances `d` values costs `O(log d)` reads, so a sequence of
    /// seeks with rising targets through a window of `n` values costs
    /// `O(k · log(n / k))` in all instead of `O(k · log n)`.
    #[inline]
    pub fn seek(self, window: Range<usize>, from: usize, x: u32) -> usize {
        let window = self.clamp(window);
        let n = window.len();
        let (mut lo, mut hi, mut step) = (from.min(n), from.min(n), 1usize);
        // Values before `lo` are below `x`.
        while hi < n && self.get(window.start + hi) < x {
            lo = hi + 1;
            hi = hi.saturating_add(step);
            step <<= 1;
        }
        let (Ok(at) | Err(at)) = self.search(window.start + lo..window.start + hi.min(n), x);
        lo + at
    }

    /// The largest value, or `None` for an empty column.
    fn max(self) -> Option<u32> {
        self.values().max()
    }

    /// Checks what [`PackedView::new`] leaves to the reader: no bit is set
    /// past the last value, and the width is the bit length of the largest
    /// value — so the image is the one [`PackedColumn::from_values`] makes
    /// of these values. The second check stops at the first value with the
    /// width's top bit set.
    pub fn validate(self) -> Result<(), PackedError> {
        self.validate_tail()?;
        // Every value fits the width, so it is the largest's bit length
        // unless no value has the width's top bit set.
        let top = self.width.saturating_sub(1);
        if self.width > 0 && !self.values().any(|v| v >> top != 0) {
            let needed = width_of(self.max().unwrap_or(0));
            return Err(PackedError::WidthNotTight { width: self.width, needed });
        }
        Ok(())
    }

    /// Checks the first half of [`PackedView::validate`]: no bit is set
    /// past the last value. A column whose width follows a rule of its own
    /// (a terminal-list slot column's, or a reverse-index slot table's)
    /// checks that rule itself.
    pub fn validate_tail(self) -> Result<(), PackedError> {
        let used = self.len * self.width as usize;
        let (full, rest) = (used / 8, used % 8);
        let partial = self.bytes.get(full).map_or(0, |&b| b >> rest);
        if partial != 0 || self.bytes.iter().skip(full + 1).any(|&b| b != 0) {
            return Err(PackedError::BitsPastEnd);
        }
        Ok(())
    }
}

/// The sequential decoder of a window of a [`PackedView`]: one bit
/// cursor, one load per value.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    bytes: &'a [u8],
    width: usize,
    mask: u64,
    /// The bit of the next value.
    bit: usize,
    /// Values still to decode.
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let v = extract(self.bytes, self.bit, self.mask);
        self.bit += self.width;
        Some(v)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A packed column: appended to, overwritten within its width, and read
/// through its [`PackedView`]. Its image is [`Bytes`], owned or a window
/// of shared storage; a write to a shared column copies it to owned bytes
/// first. At most 2^32 − 1 values, like every slab and dictionary column.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PackedColumn {
    bytes: Bytes,
    width: u32,
    len: u32,
}

impl PackedColumn {
    /// An empty column with exact room for `len` values whose largest is
    /// `max` — what a builder that counted first knows. Appending those
    /// values never reallocates, and the column is then canonical.
    ///
    /// # Panics
    ///
    /// If `len` is 2^32 or more.
    pub fn with_capacity(len: usize, max: u32) -> Self {
        PackedColumn::with_width(len, width_of(max))
    }

    /// An empty column of `width` bits a value with exact room for `len`
    /// values — [`PackedColumn::with_capacity`] for a column whose width
    /// is not its largest value's bit length (a terminal-list slot
    /// column's flag bit, a reverse index's empty-slot marker).
    ///
    /// # Panics
    ///
    /// If `len` is 2^32 or more, or `width` is above [`MAX_WIDTH`].
    pub fn with_width(len: usize, width: u32) -> Self {
        u32::try_from(len).expect("packed column overflow: 2^32 values");
        assert!(width <= MAX_WIDTH, "{}", PackedError::WidthAbove32(width));
        let bytes = bytes_for(len, width).expect("packed column overflows usize");
        PackedColumn { bytes: Vec::with_capacity(bytes).into(), width, len: 0 }
    }

    /// `len` copies of `value`, at its width, exact-sized.
    pub fn filled(len: usize, value: u32) -> Self {
        PackedColumn::streamed(std::iter::repeat_n(value, len), width_of(value))
    }

    /// The column of `values`, every one of which fits `width` bits,
    /// exact-sized: the bit stream is written a word at a time.
    fn streamed(values: impl ExactSizeIterator<Item = u32>, width: u32) -> Self {
        let mut column = PackedColumn::with_width(values.len(), width);
        column.len = values.len() as u32;
        if width == 0 {
            return column;
        }
        let bytes = column.bytes.make_mut();
        let (mut word, mut used) = (0u64, 0);
        for value in values {
            debug_assert!(u64::from(value) >> width == 0, "{value} in {width} bits");
            word |= u64::from(value) << used;
            used += width;
            if used >= 64 {
                bytes.extend_from_slice(&word.to_le_bytes());
                used -= 64;
                // The value's bits that did not fit the word start the next.
                word = if used == 0 { 0 } else { u64::from(value) >> (width - used) };
            }
        }
        if used > 0 {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(&[0; 8]);
        column
    }

    /// Appends one value to a column whose width was fixed up front.
    ///
    /// # Panics
    ///
    /// If the value needs more bits than the column's width. (Pushing
    /// past 2^32 − 1 values overflows the length: it panics in debug
    /// builds, and [`PackedColumn::with_capacity`] refuses such a column.)
    #[inline]
    pub fn push(&mut self, value: u32) {
        if u64::from(value) >> self.width != 0 {
            too_wide(value, self.width);
        }
        self.append(value);
    }

    /// Appends one value to a column that grows: a value wider than the
    /// column first repacks every value at the value's width, so a column
    /// whose width has only ever grown this way is the canonical image of
    /// its values.
    #[inline]
    pub fn push_widening(&mut self, value: u32) {
        if u64::from(value) >> self.width != 0 {
            self.widen(width_of(value));
        }
        self.append(value);
    }

    /// Repacks every value at `width` bits, exact-sized.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, width: u32) {
        *self = PackedColumn::streamed(self.values(), width);
    }

    /// Appends a value known to fit the width.
    #[inline]
    fn append(&mut self, value: u32) {
        if self.bytes.is_shared() {
            self.copy_out();
        }
        let width = self.width as usize;
        debug_assert!(u64::from(value) >> width == 0, "{value} in {width} bits");
        if width > 0 {
            // The image grows by whole zero words, keeping one past the
            // values. The value's low bits go into the word its first bit
            // is in, any that do not fit it into the next: whole aligned
            // words, so each read of a word is of the store before.
            let bit = self.len as usize * width;
            let need = (bit + width).div_ceil(64) * 8 + 8;
            let bytes = self.bytes.make_mut();
            if bytes.len() < need {
                bytes.resize(need, 0);
            }
            write_pair(bytes, bit, 0, value);
        }
        self.len += 1;
    }

    /// Replaces a shared column by an owned copy of its image before a
    /// write — of the values as they read now, so a column whose provider
    /// shrank becomes the empty column of its width.
    #[cold]
    #[inline(never)]
    fn copy_out(&mut self) {
        let view = self.view();
        let (bytes, len) = (view.bytes.to_vec(), view.len as u32);
        *self = PackedColumn { bytes: bytes.into(), width: self.width, len };
    }

    /// Overwrites value `i`, within the column's width.
    ///
    /// # Panics
    ///
    /// If `i` is past the end, or the value needs more bits than the
    /// column's width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u32) {
        if self.bytes.is_shared() {
            self.copy_out();
        }
        assert!(i < self.len(), "packed index {i} past a column of {}", self.len);
        if u64::from(value) >> self.width != 0 {
            too_wide(value, self.width);
        }
        if self.width > 0 {
            let (bit, clear) = (i * self.width as usize, mask_of(self.width));
            write_pair(self.bytes.make_mut(), bit, clear, value);
        }
    }

    /// The canonical column of `values`: the width of their largest,
    /// exact-sized.
    pub fn from_values(values: &[u32]) -> Self {
        let width = width_of(values.iter().copied().max().unwrap_or(0));
        PackedColumn::pack(values, width).expect("the width of the largest value fits them all")
    }

    /// Packs `values` at `width` bits each, which must be their largest
    /// value's bit length: a width above [`MAX_WIDTH`], one narrower than
    /// a value needs and one wider than the largest needs are each their
    /// own [`PackedError`].
    pub fn pack(values: &[u32], width: u32) -> Result<Self, PackedError> {
        if width > MAX_WIDTH {
            return Err(PackedError::WidthAbove32(width));
        }
        let max = values.iter().copied().max().unwrap_or(0);
        if width_of(max) > width {
            return Err(PackedError::ValueTooWide { value: max, width });
        }
        if width_of(max) < width {
            return Err(PackedError::WidthNotTight { width, needed: width_of(max) });
        }
        Ok(PackedColumn::streamed(values.iter().copied(), width))
    }

    /// The column of `len` values of `width` bits whose image is `bytes`,
    /// owned or shared. Checks only what [`PackedView::new`] checks, and
    /// that the length fits a column, touching no byte of the image:
    /// [`PackedView::validate`] checks the rest of what makes it canonical.
    pub fn new(bytes: Bytes, width: u32, len: usize) -> Result<Self, PackedError> {
        PackedView::new(&bytes, width, len)?;
        let len = u32::try_from(len).map_err(|_| PackedError::TooLong(len))?;
        Ok(PackedColumn { bytes, width, len })
    }

    /// Adopts a packed image — `len` values of `width` bits in `bytes` —
    /// which must be canonical: each way it may not be is its own
    /// [`PackedError`].
    pub fn from_bytes(bytes: Vec<u8>, width: u32, len: usize) -> Result<Self, PackedError> {
        PackedView::new(&bytes, width, len)?.validate()?;
        PackedColumn::from_image(bytes, width, len)
    }

    /// Adopts a packed image that [`PackedView::new`] accepts and whose
    /// tail is zero ([`PackedView::validate_tail`]), whatever its width:
    /// the owner of a column with a width rule of its own checks that rule.
    pub fn from_image(bytes: Vec<u8>, width: u32, len: usize) -> Result<Self, PackedError> {
        PackedView::new(&bytes, width, len)?.validate_tail()?;
        PackedColumn::new(bytes.into(), width, len)
    }

    /// An owned copy of a view's image.
    ///
    /// # Panics
    ///
    /// If the view holds 2^32 values or more.
    pub fn from_view(view: PackedView<'_>) -> Self {
        let len = u32::try_from(view.len).expect("packed column overflow: 2^32 values");
        PackedColumn { bytes: view.bytes.to_vec().into(), width: view.width, len }
    }

    /// The column as the borrowed view every read goes through.
    #[inline]
    pub fn view(&self) -> PackedView<'_> {
        match &self.bytes.0 {
            Storage::Owned(bytes) => {
                PackedView { bytes, width: self.width, len: self.len as usize }
            }
            Storage::Shared(..) => self.shared_view(),
        }
    }

    /// A shared column's view: the empty column when its bytes are not
    /// the ones its width and length need, as when its provider shrank.
    /// Out of line, so that the reads of owned columns inline.
    #[inline(never)]
    fn shared_view(&self) -> PackedView<'_> {
        PackedView::new(&self.bytes, self.width, self.len as usize).unwrap_or(PackedView::EMPTY)
    }

    /// True when the image is a window into shared storage.
    pub fn is_shared(&self) -> bool {
        self.bytes.is_shared()
    }

    /// Number of values. (A shared column whose provider shrank keeps its
    /// length, but its view is the empty column.)
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the column holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Value `i`; 0 past the end.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.view().get(i)
    }

    /// Every value in order.
    pub fn values(&self) -> Iter<'_> {
        self.view().values()
    }

    /// Heap bytes: the capacity of an owned image; none for a shared one.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes()
    }

    /// Gives back the room growth reserved beyond the image.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }
}

/// Writes `value` at bit `bit` of an owned image, clearing the `clear`
/// bits there first: one read-modify-write of the two words from the one
/// `bit` is in, which a value that starts in the column's last word
/// before the zero word spans at most.
#[inline]
fn write_pair(bytes: &mut [u8], bit: usize, clear: u64, value: u32) {
    let (at, shift) = (bit / 64 * 8, bit % 64);
    let words: &mut [u8; 16] = (&mut bytes[at..at + 16]).try_into().expect("16 bytes");
    let merged =
        u128::from_le_bytes(*words) & !(u128::from(clear) << shift) | u128::from(value) << shift;
    *words = merged.to_le_bytes();
}

/// The panic of [`PackedColumn::push`] and [`PackedColumn::set`], out of
/// their line.
#[cold]
#[inline(never)]
fn too_wide(value: u32, width: u32) -> ! {
    panic!("{}", PackedError::ValueTooWide { value, width })
}

impl std::fmt::Debug for PackedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedColumn").field("len", &self.len).field("width", &self.width).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reads, windows, searches and images of every width are checked
    // against a `Vec<u32>` oracle in `tests/packed.rs`.

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pushing_a_value_wider_than_the_column_panics() {
        PackedColumn::with_capacity(2, 7).push(8);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn setting_a_value_wider_than_the_column_panics() {
        let mut column = PackedColumn::filled(2, 7);
        column.set(1, 8);
    }

    #[test]
    fn a_widening_push_repacks_the_column_canonically() {
        let mut column = PackedColumn::with_capacity(2, 7);
        column.push_widening(5);
        column.push_widening(300);
        assert_eq!((column.width(), column.values().collect::<Vec<_>>()), (9, vec![5, 300]));
        assert_eq!(column, PackedColumn::from_values(&[5, 300]));
    }
}
