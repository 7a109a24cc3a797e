//! The frozen tier: term keys in ascending order, plain front coded.
//!
//! A term's key ([`term_key`]) is its kind byte, then — for language-tagged
//! and typed literals only — a varint length and the tag or datatype IRI,
//! then the lexical form, IRI or label. Distinct terms have distinct keys
//! (the length prefix ends the tag, the rest is the text), and no byte
//! needs escaping.
//!
//! The keys are stored sorted, in blocks of `block` keys (HDT's plain
//! front coding; Martínez-Prieto et al., *Practical compressed string
//! dictionaries*, Inf. Syst. 2016). A block's first key is stored whole, as
//! a varint length and its bytes; every later key as a varint shared-prefix
//! length, a varint suffix length and the suffix. A packed column holds the
//! cumulative byte offset of every block, one more than there are blocks.
//!
//! Frozen ids keep the first-seen order the bulk load handed out, so two
//! more packed columns map between them and key order: `ids` holds the
//! frozen id of each key, in key order, and `ranks` the position of each
//! frozen id's key, its inverse. So `ranks[a] < ranks[b]` exactly when
//! `term_key(a) < term_key(b)`.
//!
//! A lookup binary-searches the block heads and scans one block, comparing
//! as it goes without rebuilding a key, then reads the key's id; a decode
//! reads the id's rank and rebuilds one key within its block into a stack
//! buffer. Neither needs a hash index.

use crate::dictionary::ArenaError;
use crate::packed::{Bytes, PackedColumn, PackedView};
use rdf_model::{TermKind, TermRef};

/// Keys per block the writer uses. A reader accepts any block size of at
/// least 1 that a section records. A decode walks half a block on
/// average; at 16 keys that walk cost query latency more than the
/// 0.66 B/triple it saves over 8 (ARCHITECTURE.md, *Why 8 keys a block*).
pub const BLOCK: u32 = 8;

/// Keys up to this many bytes are built and rebuilt on the stack.
const STACK: usize = 256;

/// `v` as a LEB128 varint: its bytes and how many of them there are.
fn varint(mut v: u32) -> ([u8; 5], usize) {
    let (mut bytes, mut n) = ([0u8; 5], 0);
    while v >= 0x80 {
        bytes[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    bytes[n] = v as u8;
    (bytes, n + 1)
}

/// Appends `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, v: u32) {
    let (bytes, n) = varint(v);
    out.extend_from_slice(&bytes[..n]);
}

/// The varint that starts a two-piece term's key after its kind byte:
/// the length of its tag or datatype IRI.
///
/// # Panics
///
/// If `second` is 4 GiB or longer.
fn second_len(second: &[u8]) -> ([u8; 5], usize) {
    varint(u32::try_from(second.len()).expect("a tag or datatype below 4 GiB"))
}

/// Appends the key of the term of this kind, tag or datatype IRI
/// (`second`) and text to `out`: the kind byte, the varint length and
/// bytes of `second` when there is one, then the text, given as pieces
/// to join (an IRI's namespace and the rest).
pub(crate) fn push_key(out: &mut Vec<u8>, kind: TermKind, second: Option<&[u8]>, text: &[&[u8]]) {
    out.push(kind as u8);
    if let Some(second) = second {
        let (len, n) = second_len(second);
        out.extend_from_slice(&len[..n]);
        out.extend_from_slice(second);
    }
    text.iter().for_each(|piece| out.extend_from_slice(piece));
}

/// A term's key, the order the frozen tier stores its terms in: its kind
/// byte, then for a language-tagged or typed literal a LEB128 varint
/// length and the tag or datatype IRI, then the lexical form, IRI or
/// blank-node label, all as UTF-8. The map is injective, and for frozen
/// ids `ranks[a] < ranks[b]` exactly when `term_key(a) < term_key(b)`
/// compared bytewise ([`FrontImage::ranks`]).
pub fn term_key(term: &TermRef<'_>) -> Vec<u8> {
    let (text, second) = term.pieces();
    let mut key = Vec::with_capacity(text.len() + second.map_or(0, |s| s.len() + 5) + 1);
    push_key(&mut key, term.kind(), second.map(str::as_bytes), &[text.as_bytes()]);
    key
}

/// Calls `f` with `term`'s key, built on the stack when it is short.
#[inline]
pub(crate) fn with_key<R>(term: &TermRef<'_>, f: impl FnOnce(&[u8]) -> R) -> R {
    let (text, second) = term.pieces();
    let (text, second) = (text.as_bytes(), second.map_or(&[][..], str::as_bytes));
    let (len, n) = if term.kind().pieces() == 2 { second_len(second) } else { ([0; 5], 0) };
    let pieces = [&[term.kind() as u8][..], &len[..n], second, text];
    let total: usize = pieces.iter().map(|p| p.len()).sum();
    if total > STACK {
        return f(&pieces.concat());
    }
    let mut buf = [0u8; STACK];
    let mut at = 0;
    for piece in pieces {
        buf[at..at + piece.len()].copy_from_slice(piece);
        at += piece.len();
    }
    f(&buf[..at])
}

/// A key's term pieces: its kind, its text and, for the two-piece kinds,
/// the tag or datatype IRI. An error when the key is not one [`push_key`]
/// writes: an unknown kind byte, a tag running past the key, text that is
/// not UTF-8, or a typed literal of the implicit `xsd:string` datatype.
pub(crate) fn key_parts(key: &[u8]) -> Result<(TermKind, &str, Option<&str>), ArenaError> {
    let (&kind, rest) = key.split_first().ok_or(ArenaError::MalformedKey)?;
    let kind = TermKind::from_byte(kind).ok_or(ArenaError::UnknownKind(kind))?;
    let utf8 = |b| std::str::from_utf8(b).map_err(|_| ArenaError::NotUtf8);
    if kind.pieces() == 1 {
        return Ok((kind, utf8(rest)?, None));
    }
    let mut cursor = Cursor { bytes: rest, at: 0 };
    let second = cursor.varint().and_then(|n| cursor.take(n)).ok_or(ArenaError::MalformedKey)?;
    let (text, second) = (utf8(&rest[cursor.at..])?, utf8(second)?);
    if TermRef::from_pieces(kind, text, Some(second)).is_none() {
        return Err(ArenaError::NonCanonicalTyped);
    }
    Ok((kind, text, Some(second)))
}

/// Length of the longest common prefix of two byte strings.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A bounds-checked reader over one block's bytes: every read past the
/// block, and every varint that is overlong or not minimal, is `None`.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn varint(&mut self) -> Option<usize> {
        // Lengths below 128, nearly all of them, are one byte.
        let first = *self.bytes.get(self.at)?;
        if first < 0x80 {
            self.at += 1;
            return Some(usize::from(first));
        }
        let mut v = 0u32;
        for i in 0..5 {
            let byte = *self.bytes.get(self.at + i)?;
            v |= u32::from(byte & 0x7F).checked_shl(7 * i as u32)?;
            if byte & 0x80 == 0 {
                // The fifth byte holds the top 4 bits, and only a one-byte
                // varint may end in a zero byte.
                if (i == 4 && byte > 0x0F) || (i > 0 && byte == 0) {
                    return None;
                }
                self.at += i + 1;
                return Some(v as usize);
            }
        }
        None
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(out)
    }

    /// A block's first key: a varint length and the bytes.
    #[inline]
    fn whole(&mut self) -> Option<&'a [u8]> {
        let n = self.varint()?;
        self.take(n)
    }

    /// A later key: its shared-prefix length and its suffix.
    #[inline]
    fn entry(&mut self) -> Option<(usize, &'a [u8])> {
        let shared = self.varint()?;
        let n = self.varint()?;
        Some((shared, self.take(n)?))
    }
}

/// The frozen tier's four columns and shape: `len` keys in blocks of
/// `block`, the blocks' bytes back to back in `bytes`, their
/// `⌈len / block⌉ + 1` cumulative offsets in `offsets`, and the two
/// permutations between key order and frozen ids. Any column may be a
/// window of a mapped file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontImage {
    /// Keys per block, at least 1.
    pub block: u32,
    /// Number of keys, one per frozen id `0..len`.
    pub len: usize,
    /// Each block's first byte in `bytes`, then `bytes.len()`.
    pub offsets: PackedColumn,
    /// The blocks.
    pub bytes: Bytes,
    /// The frozen id of each key, in key order.
    pub ids: PackedColumn,
    /// The position of each frozen id's key in key order: `ids` inverted.
    pub ranks: PackedColumn,
}

impl Default for FrontImage {
    fn default() -> Self {
        FrontImage {
            block: BLOCK,
            len: 0,
            offsets: PackedColumn::from_values(&[0]),
            bytes: Bytes::default(),
            ids: PackedColumn::default(),
            ranks: PackedColumn::default(),
        }
    }
}

impl FrontImage {
    /// Front codes `keys`, which must be strictly ascending, in blocks of
    /// `block` keys; `ids[i]` is the frozen id of key `i`, and `ids` is a
    /// permutation of `0..ids.len()`, one per key.
    ///
    /// # Panics
    ///
    /// If `block` is 0, the coded bytes reach 4 GiB, or `ids` is not as
    /// long as `keys`.
    pub(crate) fn build<'k>(
        keys: impl IntoIterator<Item = &'k [u8]>,
        ids: &[u32],
        block: u32,
    ) -> Self {
        assert!(block >= 1, "a block holds at least one key");
        let (mut bytes, mut offsets) = (Vec::new(), Vec::new());
        let mut prev: &[u8] = &[];
        let mut len = 0;
        for key in keys {
            let len32 = |n: usize| u32::try_from(n).expect("a key below 4 GiB");
            if len % block as usize == 0 {
                offsets.push(bytes.len());
                put_varint(&mut bytes, len32(key.len()));
                bytes.extend_from_slice(key);
            } else {
                debug_assert!(prev < key, "keys ascend");
                let shared = common_prefix(prev, key);
                put_varint(&mut bytes, len32(shared));
                put_varint(&mut bytes, len32(key.len() - shared));
                bytes.extend_from_slice(&key[shared..]);
            }
            prev = key;
            len += 1;
        }
        offsets.push(bytes.len());
        bytes.shrink_to_fit();
        let offsets: Vec<u32> = offsets
            .into_iter()
            .map(|o| u32::try_from(o).expect("the frozen dictionary tier is below 4 GiB"))
            .collect();
        assert_eq!(ids.len(), len, "one frozen id per key");
        let mut ranks = vec![0u32; len];
        for (rank, &id) in ids.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        FrontImage {
            block,
            len,
            offsets: PackedColumn::from_values(&offsets),
            bytes: bytes.into(),
            ids: PackedColumn::from_values(ids),
            ranks: PackedColumn::from_values(&ranks),
        }
    }

    /// The columns as borrowed views, which every read goes through.
    #[inline]
    pub(crate) fn view(&self) -> FrontView<'_> {
        FrontView {
            block: self.block as usize,
            len: self.len,
            offsets: self.offsets.view(),
            bytes: self.bytes.get(),
            ids: self.ids.view(),
            ranks: self.ranks.view(),
        }
    }

    /// Checks in one sequential pass that the columns are what
    /// [`FrontImage::build`] lays down over the keys of distinct terms: a
    /// block size of at least 1, a canonical offsets column with one entry
    /// per block and one more, ascending from 0 to the bytes' end, every
    /// block holding exactly its keys, every varint minimal and inside its
    /// block, every shared prefix at most the previous key's length and
    /// maximal, keys strictly ascending across blocks too, every key one
    /// a term has ([`key_parts`]), and `ids` and `ranks` canonical
    /// columns of `len` values each that invert each other.
    pub(crate) fn validate(&self) -> Result<(), ArenaError> {
        if self.block == 0 {
            return Err(ArenaError::BlockSize);
        }
        // Every key takes at least two bytes, so a count the bytes cannot
        // hold is refused before anything walks it.
        if self.len > self.bytes.len() / 2 {
            return Err(ArenaError::BlockCount {
                blocks: self.offsets.len().saturating_sub(1),
                keys: self.len,
            });
        }
        for (column, ints) in
            [("block offsets", &self.offsets), ("key ids", &self.ids), ("key ranks", &self.ranks)]
        {
            ints.view().validate().map_err(|error| ArenaError::Packed { column, error })?;
        }
        // `ranks[ids[r]] == r` for every `r` makes `ids` one-to-one, so
        // both are permutations of `0..len` and each inverts the other.
        let (ids, ranks) = (self.ids.view(), self.ranks.view());
        if ids.len() != self.len
            || ranks.len() != self.len
            || ids
                .values()
                .enumerate()
                .any(|(r, id)| (id as usize) >= self.len || ranks.get(id as usize) as usize != r)
        {
            return Err(ArenaError::NotAPermutation);
        }
        let view = self.view();
        if self.offsets.len() != view.blocks() + 1 {
            return Err(ArenaError::BlockCount {
                blocks: self.offsets.len().saturating_sub(1),
                keys: self.len,
            });
        }
        let mut last = 0;
        let offsets = view.offsets;
        if offsets.get(0) != 0
            || offsets.values().any(|o| std::mem::replace(&mut last, o) > o)
            || last as usize != view.bytes.len()
        {
            return Err(ArenaError::OffsetsNotMonotone);
        }
        // The previous key, rebuilt in place.
        let mut key: Vec<u8> = Vec::new();
        for b in 0..view.blocks() {
            let mut cursor = view.cursor(b);
            for i in 0..view.keys_in(b) {
                if i == 0 {
                    let head = cursor.whole().ok_or(ArenaError::VarintPastBlock)?;
                    if b > 0 && head <= &key[..] {
                        return Err(ArenaError::KeysNotAscending);
                    }
                    key.clear();
                    key.extend_from_slice(head);
                } else {
                    let (shared, suffix) = cursor.entry().ok_or(ArenaError::VarintPastBlock)?;
                    if shared > key.len() {
                        return Err(ArenaError::SharedPrefixTooLong);
                    }
                    // Ascending with a maximal shared prefix: the suffix
                    // starts above the previous key's byte there, or
                    // extends the whole previous key.
                    let ascends = match (suffix.first(), key.get(shared)) {
                        (Some(&next), Some(&was)) => next > was,
                        (Some(_), None) => true,
                        (None, _) => false,
                    };
                    if !ascends {
                        return Err(ArenaError::KeysNotAscending);
                    }
                    key.truncate(shared);
                    key.extend_from_slice(suffix);
                }
                key_parts(&key)?;
            }
            if cursor.at != cursor.bytes.len() {
                return Err(ArenaError::BlockOverrun);
            }
        }
        Ok(())
    }

    /// Heap bytes of the blocks, of the block offsets and of the two
    /// permutations; a mapped column's are none.
    pub(crate) fn heap_bytes(&self) -> (usize, usize, usize) {
        (
            self.bytes.heap_bytes(),
            self.offsets.heap_bytes(),
            self.ids.heap_bytes() + self.ranks.heap_bytes(),
        )
    }
}

/// The frozen tier's columns, borrowed once for a whole operation.
#[derive(Clone, Copy)]
pub(crate) struct FrontView<'a> {
    block: usize,
    len: usize,
    offsets: PackedView<'a>,
    bytes: &'a [u8],
    ids: PackedView<'a>,
    ranks: PackedView<'a>,
}

impl<'a> FrontView<'a> {
    fn blocks(self) -> usize {
        self.len.div_ceil(self.block)
    }

    /// Keys in block `b`: `block`, or fewer in the last.
    fn keys_in(self, b: usize) -> usize {
        self.block.min(self.len - b * self.block)
    }

    /// A reader over block `b`'s bytes (empty if its offsets are not a
    /// window of the bytes: shared bytes that changed after validation).
    #[inline]
    fn cursor(self, b: usize) -> Cursor<'a> {
        let (start, end) = self.offsets.pair(b);
        Cursor { bytes: self.bytes.get(start as usize..end as usize).unwrap_or(&[]), at: 0 }
    }

    /// The frozen id of `key`, if it is one of the keys.
    pub(crate) fn find(self, key: &[u8]) -> Option<u32> {
        self.position(key).map(|rank| self.ids.get(rank))
    }

    /// The position of `key` in key order, if it is one of the keys.
    fn position(self, key: &[u8]) -> Option<usize> {
        // The last block whose first key is at most `key`.
        let (mut lo, mut hi) = (0, self.blocks());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cursor(mid).whole()? <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let b = lo.checked_sub(1)?;
        let mut cursor = self.cursor(b);
        let head = cursor.whole()?;
        let base = b * self.block;
        if head == key {
            return Some(base);
        }
        // Invariant: the previous key is below `key` and shares `m` bytes
        // with it. A later key sharing more with the previous key is below
        // `key` too; one sharing less is above it (shared prefixes are
        // maximal and keys ascend).
        let mut m = common_prefix(head, key);
        for i in 1..self.keys_in(b) {
            let (shared, suffix) = cursor.entry()?;
            if shared > m {
                continue;
            }
            if shared < m {
                return None;
            }
            let rest = &key[m..];
            let l = common_prefix(suffix, rest);
            match (suffix.get(l), rest.get(l)) {
                (None, None) => return Some(base + i),
                (None, Some(_)) => m += l,
                (Some(s), Some(r)) if s < r => m += l,
                _ => return None,
            }
        }
        None
    }

    /// Rebuilds the key at position `rank` into `buf`, returning its
    /// length. `Err(true)` when a key on the way is longer than `buf`;
    /// `Err(false)` when `rank` is out of range or the block does not
    /// decode.
    fn rebuild(self, rank: usize, buf: &mut [u8]) -> Result<usize, bool> {
        if rank >= self.len {
            return Err(false);
        }
        let (b, i) = (rank / self.block, rank % self.block);
        let mut cursor = self.cursor(b);
        let head = cursor.whole().ok_or(false)?;
        buf.get_mut(..head.len()).ok_or(true)?.copy_from_slice(head);
        let mut len = head.len();
        for _ in 0..i {
            let (shared, suffix) = cursor.entry().ok_or(false)?;
            if shared > len {
                return Err(false);
            }
            len = shared + suffix.len();
            buf.get_mut(shared..len).ok_or(true)?.copy_from_slice(suffix);
        }
        Ok(len)
    }

    /// Calls `f` with frozen id `id`'s key, rebuilt on the stack when it
    /// is short and otherwise in a buffer as long as its block, which
    /// bounds every key in it; `None` when `id` is out of range.
    #[inline]
    pub(crate) fn with_key<R>(self, id: usize, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        if id >= self.len {
            return None;
        }
        let rank = self.ranks.get(id) as usize;
        let mut stack = [0u8; STACK];
        match self.rebuild(rank, &mut stack) {
            Ok(len) => Some(f(&stack[..len])),
            Err(false) => None,
            Err(true) => {
                let mut heap = vec![0u8; self.cursor(rank / self.block).bytes.len()];
                let len = self.rebuild(rank, &mut heap).ok()?;
                Some(f(&heap[..len]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys whose frozen ids are their positions.
    fn image<'k>(keys: impl ExactSizeIterator<Item = &'k [u8]>, block: u32) -> FrontImage {
        let ids: Vec<u32> = (0..keys.len() as u32).collect();
        FrontImage::build(keys, &ids, block)
    }

    #[test]
    fn every_key_is_found_and_rebuilt_at_every_block_size() {
        let mut keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| term_key(&TermRef::iri(format!("http://x/{}/{}", i % 7, i * 31 % 97))))
            .collect();
        keys.sort();
        keys.dedup();
        // Frozen ids in another order than the keys: the last key is id 0.
        let ids: Vec<u32> = (0..keys.len() as u32).rev().collect();
        for block in [1, 2, 3, 16, 64, 1000] {
            let front = FrontImage::build(keys.iter().map(Vec::as_slice), &ids, block);
            front.validate().unwrap();
            let view = front.view();
            for (rank, key) in keys.iter().enumerate() {
                let id = ids[rank];
                assert_eq!(view.find(key), Some(id), "block {block}");
                assert_eq!(view.with_key(id as usize, <[u8]>::to_vec).as_ref(), Some(key));
                let mut above = key.clone();
                above.push(0);
                if keys.get(rank + 1) != Some(&above) {
                    assert_eq!(view.find(&above), None, "block {block}");
                }
            }
            assert_eq!(view.find(b""), None);
            assert_eq!(view.find(&[0xFF]), None);
            assert_eq!(view.with_key(keys.len(), |_| ()), None);
        }
    }

    #[test]
    fn a_key_longer_than_the_stack_buffer_is_rebuilt_on_the_heap() {
        let long = [vec![0u8], vec![b'a'; 600]].concat();
        let longer = [long.clone(), vec![b'b'; 10]].concat();
        let front = image([&[0, b'0'][..], &long, &longer].into_iter(), 16);
        front.validate().unwrap();
        assert_eq!(front.view().with_key(2, <[u8]>::to_vec), Some(longer.clone()));
        assert_eq!(front.view().find(&longer), Some(2));
    }

    #[test]
    fn keys_order_kinds_then_tags_then_text() {
        let keys = [
            TermRef::iri("b"),
            TermRef::blank("a"),
            TermRef::literal(""),
            TermRef::lang_literal("z", "en"),
            TermRef::lang_literal("a", "fr"),
            TermRef::typed_literal("1", "http://x/int"),
        ]
        .map(|t| term_key(&t));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        for t in [TermRef::lang_literal("ab", "c"), TermRef::typed_literal("", "x")] {
            let key = term_key(&t);
            with_key(&t, |k| assert_eq!(k, key));
            let (kind, text, second) = key_parts(&key).unwrap();
            assert_eq!(TermRef::from_pieces(kind, text, second), Some(t));
        }
    }

    #[test]
    fn corrupt_columns_are_named_rejections() {
        let keys: Vec<Vec<u8>> =
            ["a", "ab", "abc", "b"].iter().map(|s| term_key(&TermRef::literal(*s))).collect();
        let good = image(keys.iter().map(Vec::as_slice), 2);
        good.validate().unwrap();
        let with_bytes = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.bytes.to_vec();
            edit(&mut bytes);
            FrontImage { bytes: bytes.into(), ..good.clone() }.validate().unwrap_err()
        };
        // Block 0: the whole key [2, 'a'], then shared 2 and suffix 'b'.
        assert_eq!(good.bytes[..6], [2, 2, b'a', 2, 1, b'b']);
        assert_eq!(with_bytes(&|b| b[3] = 3), ArenaError::SharedPrefixTooLong);
        assert_eq!(with_bytes(&|b| b[4] = 9), ArenaError::VarintPastBlock);
        assert_eq!(with_bytes(&|b| [b[3], b[5]] = [1, b'0']), ArenaError::KeysNotAscending);
        // A shared prefix shorter than the longest one repeats a key.
        assert_eq!(with_bytes(&|b| [b[3], b[5]] = [1, b'a']), ArenaError::KeysNotAscending);
        assert_eq!(with_bytes(&|b| b[1] = 7), ArenaError::UnknownKind(7));
        assert_eq!(with_bytes(&|b| b[2] = 0xFF), ArenaError::NotUtf8);
        assert_eq!(with_bytes(&|b| b[3] = 0x80), ArenaError::VarintPastBlock);
        let offsets = |values: &[u32]| {
            FrontImage { offsets: PackedColumn::from_values(values), ..good.clone() }
                .validate()
                .unwrap_err()
        };
        let end = good.bytes.len() as u32;
        assert_eq!(offsets(&[0, 7, 6]), ArenaError::OffsetsNotMonotone);
        assert_eq!(offsets(&[0, 6, end - 1]), ArenaError::OffsetsNotMonotone);
        assert_eq!(offsets(&[0, end]), ArenaError::BlockCount { blocks: 1, keys: 4 });
        // Block 1's head not above block 0's last key.
        let blocks = image(keys.iter().map(Vec::as_slice).take(2), 1);
        let swapped = [&blocks.bytes[3..], &blocks.bytes[..3]].concat();
        let swapped = FrontImage { bytes: swapped.into(), ..blocks.clone() };
        assert_eq!(
            FrontImage { offsets: PackedColumn::from_values(&[0, 4, 7]), ..swapped }.validate(),
            Err(ArenaError::KeysNotAscending)
        );
        // Bytes after a block's last key.
        let padded = [&blocks.bytes[..], &[0]].concat();
        let padded = FrontImage {
            offsets: PackedColumn::from_values(&[0, 3, 8]),
            bytes: padded.into(),
            ..blocks
        };
        assert_eq!(padded.validate(), Err(ArenaError::BlockOverrun));
        // The id and rank columns: a repeated id, ranks that do not invert
        // the ids, an id out of range, a column of the wrong length.
        let permutation = |ids: &[u32], ranks: &[u32]| {
            let ids = PackedColumn::from_values(ids);
            let ranks = PackedColumn::from_values(ranks);
            FrontImage { ids, ranks, ..good.clone() }.validate()
        };
        assert_eq!(permutation(&[1, 0, 3, 2], &[1, 0, 3, 2]), Ok(()));
        assert_eq!(permutation(&[0, 1, 2, 2], &[0, 1, 3, 2]), Err(ArenaError::NotAPermutation));
        assert_eq!(permutation(&[1, 0, 3, 2], &[0, 1, 2, 3]), Err(ArenaError::NotAPermutation));
        assert_eq!(permutation(&[0, 1, 2, 4], &[0, 1, 2, 3]), Err(ArenaError::NotAPermutation));
        assert_eq!(permutation(&[0, 1, 2], &[0, 1, 2, 3]), Err(ArenaError::NotAPermutation));
        assert_eq!(FrontImage { block: 0, ..good }.validate(), Err(ArenaError::BlockSize));
    }
}
