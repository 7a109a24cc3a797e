//! The bidirectional term ⇄ id mapping table, in two tiers.
//!
//! The frozen tier holds ids `0..n_f`: the terms a bulk load interned, in
//! its first-seen order, their keys sorted and front coded
//! ([`crate::front`]), immutable and shared. Its rank column orders the
//! ids as their keys ([`crate::term_key`]) compare bytewise. The delta
//! tier holds the ids from `n_f` up, append-only, interned one by one
//! into string arenas as follows.
//!
//! Every delta term is stored as a kind, a prefix id and the term's own bytes.
//! The prefix is the part terms share: an IRI's namespace (its text up to
//! and including the last `/` or `#`), a literal's language tag or
//! datatype IRI. Blank nodes and plain literals have prefix 0, the empty
//! string. Prefixes are interned once into a table of their own, so a
//! namespace that thousands of IRIs repeat is stored once.
//!
//! The in-memory columns mirror the hexsnap `DICT` section byte for byte
//! (the frozen tier's block offsets, blocks, ids and ranks; the delta's
//! term heads, cumulative ends, the own-bytes arena; prefix ends, prefix
//! bytes), so saving is a straight copy of nine buffers and loading is a
//! validation — one sequential pass over the frozen tier, one hash pass
//! per delta table — with no per-term `Term` construction and no per-term
//! allocation. Every integer column — the heads, both end tables, both
//! reverse indexes' slots and the frozen tier's offsets, ids and ranks —
//! is a [`PackedColumn`] at the width its values need.

use crate::front::{self, FrontImage};
use crate::id::{Id, IdTriple};
use crate::packed::{Bytes, PackedColumn, PackedError, PackedView};
use rdf_model::{Term, TermKind, TermRef, Triple, TripleRef};
use std::sync::Arc;

/// Strings stored back to back: one cumulative end per string into one
/// arena.
#[derive(Clone, Default)]
struct Strings {
    ends: PackedColumn,
    arena: Bytes,
}

impl Strings {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The table as borrowed views, which every read goes through.
    #[inline]
    fn view(&self) -> StringsView<'_> {
        StringsView { ends: self.ends.view(), arena: self.arena.get() }
    }

    fn push(&mut self, s: &[u8]) {
        let arena = self.arena.make_mut();
        arena.extend_from_slice(s);
        let end = u32::try_from(arena.len()).expect("dictionary string arena exceeds 4 GiB");
        self.ends.push_widening(end);
    }

    /// Checks that the ends are a monotone cover of a UTF-8 arena that
    /// cut it only on character boundaries.
    fn validate(&self) -> Result<(), ArenaError> {
        let StringsView { ends, arena: bytes } = self.view();
        let mut last = 0;
        if ends.values().any(|e| std::mem::replace(&mut last, e) > e)
            || last as usize != bytes.len()
        {
            return Err(ArenaError::OffsetsNotMonotone);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| ArenaError::NotUtf8)?;
        if ends.values().any(|e| !text.is_char_boundary(e as usize)) {
            return Err(ArenaError::SplitsChar);
        }
        Ok(())
    }

    fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.arena.shrink_to_fit();
    }
}

/// A string table's columns, borrowed once for a whole operation.
#[derive(Clone, Copy)]
struct StringsView<'a> {
    ends: PackedView<'a>,
    arena: &'a [u8],
}

impl<'a> StringsView<'a> {
    /// The bytes of string `i`. Clamped: an index out of range, or shared
    /// bytes that shrank after validation, yield an empty slice, never a
    /// panic.
    #[inline]
    fn get(self, i: usize) -> &'a [u8] {
        let (start, end) = match i.checked_sub(1) {
            Some(prev) => self.ends.pair(prev),
            None => (0, self.ends.get(0)),
        };
        self.arena.get(start as usize..end as usize).unwrap_or(&[])
    }
}

/// The term columns — heads and own bytes — borrowed once for a whole
/// operation.
#[derive(Clone, Copy)]
struct TermsView<'a> {
    heads: PackedView<'a>,
    own: StringsView<'a>,
}

impl TermsView<'_> {
    /// The hash of term `id`'s key.
    #[inline]
    fn hash(self, id: u32) -> u64 {
        hash_key(self.heads.get(id as usize), self.own.get(id as usize))
    }

    /// Whether term `id` is the one of this head and own bytes.
    #[inline]
    fn is(self, id: u32, head: u32, own: &[u8]) -> bool {
        self.heads.get(id as usize) == head && self.own.get(id as usize) == own
    }
}

/// Open-addressing hash table from keys to ids.
///
/// Slots hold ids; keys live in the arenas, so the table itself is one
/// packed column — no per-entry allocation, and lookups compare borrowed
/// bytes directly. Capacity is a power of two, the smallest that keeps
/// the load factor at or below 7/8 ([`slots_for`]), whether the table
/// grew by interning or was built for a table read whole. A slot is
/// `log2(slots)` bits wide, and its all-ones value marks it empty: ids
/// are below the entry count, at most 7/8 of the slots, so no id is
/// all ones. An entry's home slot is the low bits of its [`hash_key`]
/// hash, which is finalized so that those bits depend on every byte of
/// the key: linear probing then displaces an entry by about two slots on
/// average at this load factor (see [`Dictionary::index_stats`]).
#[derive(Clone, Default)]
struct TermIndex {
    slots: PackedColumn,
}

/// Slot count of a table holding `n` entries: the smallest power of two
/// of at least `8n / 7` (none for no entry).
fn slots_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n * 8).div_ceil(7).next_power_of_two()
    }
}

impl TermIndex {
    /// An empty table sized for `n` entries.
    fn with_capacity(n: usize) -> Self {
        let slots = slots_for(n);
        TermIndex { slots: PackedColumn::filled(slots, empty_slot(slots)) }
    }

    /// Whether holding `n >= 1` entries would push the load factor past
    /// 7/8 (always true of the unallocated default table).
    fn must_grow_for(&self, n: usize) -> bool {
        self.slots.len() * 7 < n * 8
    }

    /// A table sized for `n` entries holding ids `0..` with the given
    /// hashes, which must belong to distinct keys. The table stores only
    /// ids, so growth rehashes from the arenas and costs no memory per
    /// entry.
    fn rebuilt(n: usize, hashes: impl Iterator<Item = u64>) -> Self {
        let mut index = TermIndex::with_capacity(n);
        for (id, hash) in hashes.enumerate() {
            index.insert_absent(hash, id as u32);
        }
        index
    }

    /// Probes for a key with the given hash: `Ok(id)` when `eq` accepts
    /// an occupied slot, `Err(slot)` with the insertion position when the
    /// probe chain ends at an empty slot. The table must be allocated.
    #[inline]
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let slots = self.slots.view();
        debug_assert!(slots.len().is_power_of_two());
        let mask = slots.len() - 1;
        let empty = mask as u32;
        let mut i = (hash as usize) & mask;
        loop {
            match slots.get(i) {
                id if id == empty => return Err(i),
                id if eq(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Looks a key up without mutating anything; `None` from an
    /// unallocated table too.
    #[inline]
    fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, eq).ok()
    }

    /// Inserts an id whose key is known to be absent.
    fn insert_absent(&mut self, hash: u64, id: u32) {
        let slot = self.probe(hash, |_| false).expect_err("no slot compares equal");
        self.slots.set(slot, id);
    }

    /// Inserts ids `0..n` with the given keys, in id order, refusing a
    /// key `same` finds already present: the index of a table that was
    /// read rather than interned.
    fn of_distinct(
        n: usize,
        hash_of: impl Fn(u32) -> u64,
        same: impl Fn(u32, u32) -> bool,
    ) -> Option<Self> {
        let mut index = TermIndex::with_capacity(n);
        for id in 0..n as u32 {
            match index.probe(hash_of(id), |other| same(id, other)) {
                Ok(_) => return None,
                Err(slot) => index.slots.set(slot, id),
            }
        }
        Some(index)
    }

    /// Sum and maximum, over the entries, of the distance between the
    /// slot an entry sits in and its home slot.
    fn displacement(&self, hash_of: impl Fn(u32) -> u64) -> (u64, usize) {
        let mask = self.slots.len().wrapping_sub(1);
        let (mut total, mut max) = (0u64, 0usize);
        for (at, id) in self.slots.values().enumerate() {
            if id != mask as u32 {
                let displaced = at.wrapping_sub(hash_of(id) as usize) & mask;
                total += displaced as u64;
                max = max.max(displaced);
            }
        }
        (total, max)
    }
}

/// The empty-slot marker of a table of `slots` slots (a power of two):
/// all ones in its `log2(slots)` bits.
fn empty_slot(slots: usize) -> u32 {
    u32::try_from(slots.saturating_sub(1)).expect("a reverse index of at most 2^32 slots")
}

/// Term ids a dictionary has room for: 7/8 of the 2^31 slots of the
/// largest reverse index a packed column holds, so no id is an empty-slot
/// marker.
const TERM_IDS: usize = 7 << 28;

/// Bits of a term's head that hold its kind; the prefix id sits above.
const KIND_BITS: u32 = 3;

/// Number of [`TermKind`]s.
const KINDS: usize = 5;

/// Prefix ids a head has room for.
const PREFIX_IDS: usize = 1 << (32 - KIND_BITS);

/// The id of the next entry of a table holding `len` and allowed `limit`
/// ids: ids are dense from 0, and stay below 7/8 of the largest reverse
/// index, whose all-ones slot marks an empty one.
///
/// # Panics
///
/// When the table is full: "dictionary overflow: more than {what}".
fn mint_id(len: usize, limit: usize, what: &str) -> u32 {
    match u32::try_from(len) {
        Ok(id) if (id as usize) < limit.min(TERM_IDS) => id,
        _ => panic!("dictionary overflow: more than {what}"),
    }
}

/// Checks the term and prefix counts of an image, each given beside the
/// length of its string arena, before anything is sized by them: a
/// packed column of width 0 takes no bytes, so a count is not bounded by
/// the columns. At most one prefix is empty and at most one term of each
/// kind per prefix has no bytes of its own, so a table with more entries
/// than that repeats one; and neither table may hold more ids than it
/// mints.
fn check_counts(terms: (usize, usize), prefixes: (usize, usize)) -> Result<(), ArenaError> {
    if prefixes.0 > prefixes.1.saturating_add(1) {
        return Err(ArenaError::DuplicatePrefix);
    }
    if terms.0 > terms.1.saturating_add(KINDS.saturating_mul(prefixes.0)) {
        return Err(ArenaError::Duplicate);
    }
    for (table, count, limit) in
        [("terms", terms.0, TERM_IDS), ("prefixes", prefixes.0, PREFIX_IDS)]
    {
        if count > limit {
            return Err(ArenaError::TooMany { table, count, limit });
        }
    }
    Ok(())
}

/// A term's head: its kind in the low [`KIND_BITS`] bits, its prefix id
/// above.
#[inline]
fn head(kind: TermKind, prefix: u32) -> u32 {
    (prefix << KIND_BITS) | kind as u32
}

/// A head's kind byte (a [`TermKind`] discriminant if the head is valid)
/// and prefix id.
#[inline]
fn unpack(head: u32) -> (u8, u32) {
    ((head & ((1 << KIND_BITS) - 1)) as u8, head >> KIND_BITS)
}

// ---------------------------------------------------------------------
// Hashing: an FxHash-style multiply-rotate over the key's head and bytes,
// then a finalizer. Collisions are resolved by byte comparison, so the
// hash only affects probe-chain length, never ids, and it is never
// persisted.
// ---------------------------------------------------------------------

const HASH_SEED: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(HASH_SEED)
}

/// Hashes a head (a term's, or 0 for a prefix) and the key's bytes.
///
/// The low bits of a multiply-rotate chain depend only on the low bits
/// of each 8-byte chunk, so keys that differ elsewhere (a serial number
/// in the middle of an IRI) would share home slots and pile into long
/// probe chains. The finalizer folds the well-mixed high half into the
/// low half, which the index masks.
#[inline]
fn hash_key(head: u32, bytes: &[u8]) -> u64 {
    let mut h = mix(HASH_SEED, u64::from(head));
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("chunk of 8")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(buf));
    }
    h = mix(h, bytes.len() as u64);
    h ^= h >> 32;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// Where an IRI's namespace ends: just past its last `/` or `#`, or 0.
/// Both are ASCII, so the cut is always a character boundary.
#[inline]
fn namespace_len(iri: &[u8]) -> usize {
    iri.iter().rposition(|&b| b == b'/' || b == b'#').map_or(0, |i| i + 1)
}

/// The split rule: a term's kind, shared prefix and own text. An IRI
/// splits after its last `/` or `#`; a tagged or typed literal's prefix
/// is its tag or datatype IRI and its own text the lexical form; a blank
/// node or plain literal is all its own text, under the empty prefix.
#[inline]
fn split<'t>(term: &'t TermRef<'_>) -> (TermKind, &'t str, &'t str) {
    let (first, second) = term.pieces();
    match (term.kind(), second) {
        (TermKind::Iri, _) => {
            let (prefix, own) = first.split_at(namespace_len(first.as_bytes()));
            (TermKind::Iri, prefix, own)
        }
        (kind, Some(second)) => (kind, second, first),
        (kind, None) => (kind, "", first),
    }
}

/// Whether `(kind, prefix, own)` is what [`split`] makes of the term it
/// spells — each term has exactly one image. `prefix` is the bytes of
/// prefix id `prefix_id`.
fn check_canonical(
    kind: TermKind,
    prefix_id: u32,
    prefix: &[u8],
    own: &[u8],
) -> Result<(), ArenaError> {
    match kind {
        TermKind::Iri if namespace_len(own) != 0 || namespace_len(prefix) != prefix.len() => {
            Err(ArenaError::IriNotSplitAtLastSeparator)
        }
        TermKind::Blank | TermKind::Literal if prefix_id != 0 => {
            Err(ArenaError::PrefixOnUnprefixedKind)
        }
        TermKind::TypedLiteral if prefix == rdf_model::XSD_STRING.as_bytes() => {
            Err(ArenaError::NonCanonicalTyped)
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// The shared interior. `Dictionary` wraps it in an `Arc` so clones are
// O(1) and copy-on-write: freezing or publishing a dataset shares the
// table, and only a later mutation of a shared clone re-owns it.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Inner {
    /// One head per term (`Id(i)` ↦ `heads[i]`): kind and prefix id.
    heads: PackedColumn,
    /// Each term's own bytes.
    terms: Strings,
    /// Reverse index: `(head, own bytes)` → term id.
    index: TermIndex,
    /// The prefix table every term points into; prefix 0 is the empty
    /// string.
    prefixes: Strings,
    /// Reverse index: prefix bytes → prefix id.
    prefix_index: TermIndex,
}

impl Default for Inner {
    fn default() -> Self {
        let mut inner = Inner {
            heads: PackedColumn::default(),
            terms: Strings::default(),
            index: TermIndex::default(),
            prefixes: Strings::default(),
            prefix_index: TermIndex::default(),
        };
        inner.push_prefix(b"");
        inner
    }
}

impl Inner {
    fn len(&self) -> usize {
        self.heads.len()
    }

    #[inline(always)]
    fn terms(&self) -> TermsView<'_> {
        TermsView { heads: self.heads.view(), own: self.terms.view() }
    }

    /// The id of an interned prefix. The empty prefix is 0 without a
    /// hash or a probe.
    #[inline]
    fn prefix_id(&self, prefix: &[u8]) -> Option<u32> {
        if prefix.is_empty() {
            return Some(0);
        }
        let prefixes = self.prefixes.view();
        self.prefix_index.find(hash_key(0, prefix), |id| prefixes.get(id as usize) == prefix)
    }

    /// The id of a term by its head and own bytes.
    #[inline]
    fn lookup(&self, hash: u64, head: u32, own: &[u8]) -> Option<u32> {
        let terms = self.terms();
        self.index.find(hash, |id| terms.is(id, head, own))
    }

    /// Appends a prefix known to be absent, returning its id.
    fn push_prefix(&mut self, prefix: &[u8]) -> u32 {
        let id = mint_id(self.prefixes.len(), PREFIX_IDS, "2^29 prefixes");
        if self.prefix_index.must_grow_for(self.prefixes.len() + 1) {
            let prefixes = self.prefixes.view();
            let hashes = (0..id).map(|p| hash_key(0, prefixes.get(p as usize)));
            self.prefix_index = TermIndex::rebuilt(self.prefixes.len() + 1, hashes);
        }
        self.prefixes.push(prefix);
        self.prefix_index.insert_absent(hash_key(0, prefix), id);
        id
    }

    /// Appends a term known to be absent, returning its new local id; the
    /// table may hold `limit` ids.
    fn push_term(&mut self, head: u32, own: &[u8], hash: u64, limit: usize) -> u32 {
        let id = mint_id(self.len(), limit, "7·2^28 terms");
        if self.index.must_grow_for(self.len() + 1) {
            let terms = self.terms();
            self.index = TermIndex::rebuilt(self.len() + 1, (0..id).map(|t| terms.hash(t)));
        }
        self.terms.push(own);
        self.heads.push_widening(head);
        self.index.insert_absent(hash, id);
        id
    }

    /// Term `i`'s kind, prefix bytes and own bytes; `None` for an id out
    /// of range.
    #[inline]
    fn parts(&self, i: usize) -> Option<(TermKind, &[u8], &[u8])> {
        let terms = self.terms();
        if i >= terms.heads.len() {
            return None;
        }
        let (kind, prefix) = unpack(terms.heads.get(i));
        let prefix = self.prefixes.view().get(prefix as usize);
        Some((TermKind::from_byte(kind)?, prefix, terms.own.get(i)))
    }

    /// [`Inner::parts`] as text. Returns `None` (never panics) for an id
    /// out of range, or if shared arena bytes have become undecodable
    /// since validation.
    #[inline]
    fn text(&self, i: usize) -> Option<(TermKind, &str, &str)> {
        let (kind, prefix, own) = self.parts(i)?;
        Some((kind, std::str::from_utf8(prefix).ok()?, std::str::from_utf8(own).ok()?))
    }
}

/// A dictionary's five columns, as the hexsnap `DICT` section lays them
/// out: what [`Dictionary::try_from_arena`] validates and adopts, and
/// what [`Dictionary::image`] copies out. Each column's bytes are owned or
/// a window into shared storage ([`Bytes`]) — an open memory map, whose
/// columns then stay in the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaImage {
    /// One head per term: its [`TermKind`] discriminant in the low three
    /// bits, its prefix id above them.
    pub heads: PackedColumn,
    /// The cumulative end of each term's own bytes in `arena`.
    pub ends: PackedColumn,
    /// The terms' own bytes, back to back.
    pub arena: Bytes,
    /// The cumulative end of each prefix in `prefixes`. Prefix 0 is the
    /// empty string.
    pub prefix_ends: PackedColumn,
    /// The prefixes' bytes, back to back.
    pub prefixes: Bytes,
}

/// Why an arena image was rejected by [`Dictionary::try_from_arena`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// A head's kind bits name no [`TermKind`].
    UnknownKind(u8),
    /// The head and end columns differ in length.
    ColumnLengths {
        /// Number of heads.
        heads: usize,
        /// Number of term ends.
        ends: usize,
    },
    /// Offsets decrease, or fail to cover their arena exactly.
    OffsetsNotMonotone,
    /// An arena is not valid UTF-8.
    NotUtf8,
    /// An offset splits a multi-byte UTF-8 sequence.
    SplitsChar,
    /// Prefix 0 is missing or not the empty string.
    EmptyPrefixMissing,
    /// A head names a prefix id past the prefix table.
    PrefixOutOfRange(u32),
    /// Two prefix ids hold the same string.
    DuplicatePrefix,
    /// Two ids decode to the same term.
    Duplicate,
    /// An IRI is not split just after its last `/` or `#`: its own bytes
    /// hold one, or its prefix does not end in one.
    IriNotSplitAtLastSeparator,
    /// A blank node or plain literal names a prefix other than 0.
    PrefixOnUnprefixedKind,
    /// A typed literal carries the implicit `xsd:string` datatype, which
    /// canonically encodes as a plain literal (kind 2).
    NonCanonicalTyped,
    /// An integer column is not the canonical packed image of its values.
    Packed {
        /// Which column: `heads`, `ends` or `prefix ends`.
        column: &'static str,
        /// How its image fails.
        error: PackedError,
    },
    /// A frozen-tier key is empty, or its tag runs past it.
    MalformedKey,
    /// The frozen tier's recorded block size is 0.
    BlockSize,
    /// The frozen tier's block offsets are not one per block and one
    /// more, or its bytes cannot hold the keys it declares.
    BlockCount {
        /// Blocks the offsets column delimits.
        blocks: usize,
        /// Keys the tier declares.
        keys: usize,
    },
    /// A varint or a key runs past the end of its block.
    VarintPastBlock,
    /// A key shares more bytes with the previous key than that key has.
    SharedPrefixTooLong,
    /// The frozen tier's keys are not strictly ascending, or a shared
    /// prefix is not the longest one.
    KeysNotAscending,
    /// A block's keys end before its bytes do.
    BlockOverrun,
    /// The frozen tier's id and rank columns are not two permutations of
    /// its ids that invert each other.
    NotAPermutation,
    /// A table declares more entries than it has ids for.
    TooMany {
        /// Which table: `terms` or `prefixes`.
        table: &'static str,
        /// Entries it declares.
        count: usize,
        /// Ids it has.
        limit: usize,
    },
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::UnknownKind(k) => write!(f, "unknown term kind {k}"),
            ArenaError::ColumnLengths { heads, ends } => {
                write!(f, "dictionary declares {heads} term heads but {ends} term ends")
            }
            ArenaError::OffsetsNotMonotone => {
                write!(f, "dictionary offsets are not a monotone cover of their arena")
            }
            ArenaError::NotUtf8 => write!(f, "dictionary string arena is not UTF-8"),
            ArenaError::SplitsChar => write!(f, "dictionary offset splits a UTF-8 sequence"),
            ArenaError::EmptyPrefixMissing => {
                write!(f, "dictionary prefix 0 is not the empty string")
            }
            ArenaError::PrefixOutOfRange(p) => {
                write!(f, "term names prefix {p}, past the prefix table")
            }
            ArenaError::DuplicatePrefix => write!(f, "duplicate prefix in dictionary section"),
            ArenaError::Duplicate => write!(f, "duplicate term in dictionary section"),
            ArenaError::IriNotSplitAtLastSeparator => {
                write!(f, "IRI is not split just after its last '/' or '#'")
            }
            ArenaError::PrefixOnUnprefixedKind => {
                write!(f, "blank node or plain literal carries a prefix")
            }
            ArenaError::NonCanonicalTyped => {
                write!(f, "typed literal carries the implicit xsd:string datatype")
            }
            ArenaError::Packed { column, error } => {
                write!(f, "dictionary {column} column: {error}")
            }
            ArenaError::MalformedKey => write!(f, "frozen dictionary key is malformed"),
            ArenaError::BlockSize => write!(f, "frozen dictionary block size is 0"),
            ArenaError::BlockCount { blocks, keys } => {
                write!(f, "frozen dictionary declares {keys} keys in {blocks} blocks")
            }
            ArenaError::VarintPastBlock => {
                write!(f, "frozen dictionary key runs past the end of its block")
            }
            ArenaError::SharedPrefixTooLong => {
                write!(f, "frozen dictionary key shares more than the previous key holds")
            }
            ArenaError::KeysNotAscending => {
                write!(f, "frozen dictionary keys are not strictly ascending")
            }
            ArenaError::BlockOverrun => {
                write!(f, "frozen dictionary block holds bytes past its last key")
            }
            ArenaError::NotAPermutation => {
                write!(f, "frozen dictionary id and rank columns are not inverse permutations")
            }
            ArenaError::TooMany { table, count, limit } => {
                write!(f, "dictionary declares {count} {table}, more than its {limit} ids")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// Dictionary encoding of RDF terms.
///
/// Maps each distinct [`Term`] to a dense [`Id`] and back. All stores in
/// the workspace share one dictionary per dataset, exactly as the paper's
/// single "mapping table" (§4.1) serves all six indices.
///
/// Ids live in two tiers, both numbered in first-seen order. The frozen
/// tier, ids `0..n_f` ([`Dictionary::frozen_len`]), is what a bulk load
/// into an empty dictionary leaves ([`Dictionary::encode_triples_parallel`]):
/// its terms' keys ([`crate::term_key`]) sorted and stored front coded in
/// blocks ([`crate::FrontImage`]), with two packed permutations between
/// key order and ids in place of a hash index. The delta tier holds every
/// term interned later, with ids from `n_f` up: a head (kind and prefix
/// id) plus its own bytes in one arena, the prefixes — IRI namespaces,
/// language tags, datatype IRIs — interned once each in a second table,
/// and a hash index over each. Ids are append-only: a term keeps its id
/// for the dictionary's life.
///
/// Encoding a term that is already present allocates nothing (a frozen hit
/// builds its key on the stack, a delta hit hashes and compares borrowed
/// bytes). The in-memory layout mirrors the hexsnap `DICT` section, so
/// snapshot save/load move whole buffers instead of constructing terms.
/// Cloning is O(1): both tiers are shared, the delta copy-on-write, and
/// only the first mutation of a shared clone re-owns it.
#[derive(Default, Clone)]
pub struct Dictionary {
    /// Ids `0..frozen.len`, in key order.
    frozen: Arc<FrontImage>,
    /// Ids from `frozen.len` up: local id `i` is id `frozen.len + i`.
    inner: Arc<Inner>,
}

/// A view whose pieces are owned: a frozen term outlives the buffer its
/// key was rebuilt in.
fn owned(t: TermRef<'_>) -> TermRef<'static> {
    let (first, second) = t.pieces();
    let (first, second) = (first.to_owned(), second.map(str::to_owned));
    match (t.kind(), second) {
        (TermKind::Iri, _) => TermRef::iri(first),
        (TermKind::Blank, _) => TermRef::blank(first),
        (TermKind::LangLiteral, Some(tag)) => TermRef::lang_literal(first, tag),
        (TermKind::TypedLiteral, Some(datatype)) => TermRef::typed_literal(first, datatype),
        _ => TermRef::literal(first),
    }
}

/// Predicate ids a batch remembers ([`Dictionary::encode_triples_parallel`]).
const PREDICATE_MEMO: usize = 16;

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Creates an empty dictionary whose delta term index has room for
    /// `n` distinct terms. (The packed columns grow as their widths do.)
    pub fn with_capacity(n: usize) -> Self {
        let inner = Inner { index: TermIndex::with_capacity(n), ..Inner::default() };
        Dictionary { inner: Arc::new(inner), ..Dictionary::default() }
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.frozen.len + self.inner.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of frozen ids, `n_f`: the keys of ids below it are sorted
    /// and front coded, ids from it up are the delta tier's.
    pub fn frozen_len(&self) -> usize {
        self.frozen.len
    }

    /// Number of distinct delta-tier prefixes, the empty one included.
    pub fn prefix_count(&self) -> usize {
        self.inner.prefixes.len()
    }

    /// Interns a term — owned (`&Term`) or borrowed (`&TermRef`, or a
    /// `TermRef` by value) — returning its id. Idempotent: the same term
    /// always yields the same id. The hit path allocates nothing for a
    /// term whose key is at most 256 bytes.
    pub fn encode<'a>(&mut self, term: impl Into<TermRef<'a>>) -> Id {
        self.encode_ref(&term.into())
    }

    fn encode_ref(&mut self, term: &TermRef<'_>) -> Id {
        if let Some(id) = self.frozen_id(term) {
            return id;
        }
        let (kind, prefix, own) = split(term);
        let (prefix, own) = (prefix.as_bytes(), own.as_bytes());
        let prefix_id = match self.inner.prefix_id(prefix) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.inner).push_prefix(prefix),
        };
        let head = head(kind, prefix_id);
        let hash = hash_key(head, own);
        let base = self.frozen.len as u32;
        if let Some(id) = self.inner.lookup(hash, head, own) {
            return Id(base + id);
        }
        let limit = TERM_IDS - self.frozen.len;
        Id(base + Arc::make_mut(&mut self.inner).push_term(head, own, hash, limit))
    }

    /// The frozen id of a term: a binary search over the block heads, a
    /// scan of one block, over its key built on the stack, and a read of
    /// the key's id.
    #[inline]
    fn frozen_id(&self, term: &TermRef<'_>) -> Option<Id> {
        if self.frozen.len == 0 {
            return None;
        }
        front::with_key(term, |key| self.frozen.view().find(key)).map(Id)
    }

    /// Looks up the id of a term without interning it. A term whose
    /// prefix no delta term has misses the delta without probing its
    /// term index.
    pub fn id_of<'a>(&self, term: impl Into<TermRef<'a>>) -> Option<Id> {
        let term = term.into();
        if let Some(id) = self.frozen_id(&term) {
            return Some(id);
        }
        let (kind, prefix, own) = split(&term);
        let prefix_id = self.inner.prefix_id(prefix.as_bytes())?;
        let head = head(kind, prefix_id);
        let local = self.inner.lookup(hash_key(head, own.as_bytes()), head, own.as_bytes())?;
        Some(Id(self.frozen.len as u32 + local))
    }

    /// A delta id's local index, or the frozen id it is.
    #[inline]
    fn tier(&self, id: Id) -> Result<usize, usize> {
        id.index().checked_sub(self.frozen.len).ok_or(id.index())
    }

    /// Calls `f` with the pieces of frozen id `i`: kind, text and the tag
    /// or datatype IRI of the two-piece kinds.
    #[inline]
    fn with_frozen<R>(&self, i: usize, f: impl FnOnce(TermRef<'_>) -> R) -> Option<R> {
        self.frozen
            .view()
            .with_key(i, |key| {
                let (kind, text, second) = front::key_parts(key).ok()?;
                TermRef::from_pieces(kind, text, second).map(f)
            })
            .flatten()
    }

    /// The term of an id as a view. A delta term borrows its arenas,
    /// except an IRI with a prefix: its namespace and its own bytes lie
    /// apart, so its text is joined into an owned `Cow` (one allocation).
    /// A frozen term is rebuilt from its block, so its pieces are owned.
    #[inline]
    pub fn term(&self, id: Id) -> Option<TermRef<'_>> {
        let local = match self.tier(id) {
            Ok(local) => local,
            Err(frozen) => return self.with_frozen(frozen, owned),
        };
        let (kind, prefix, own) = self.inner.text(local)?;
        match kind {
            TermKind::Iri if prefix.is_empty() => Some(TermRef::iri(own)),
            TermKind::Iri => Some(TermRef::iri([prefix, own].concat())),
            TermKind::Blank | TermKind::Literal => TermRef::from_pieces(kind, own, None),
            _ => TermRef::from_pieces(kind, own, Some(prefix)),
        }
    }

    /// Decodes an id back to an owned term, in one allocation whatever
    /// its kind or tier: a frozen key is rebuilt on the stack (a key
    /// longer than 256 bytes in a buffer of its own), and a delta IRI's
    /// prefix and own bytes, like a literal's two pieces, are joined on
    /// the stack.
    pub fn decode(&self, id: Id) -> Option<Term> {
        match self.tier(id) {
            Err(frozen) => self.with_frozen(frozen, |t| t.to_owned()),
            Ok(local) => match self.inner.parts(local)? {
                (TermKind::Iri, prefix, own) => Term::iri_from_parts(prefix, own),
                _ => self.term(id).map(|t| t.to_owned()),
            },
        }
    }

    /// Encodes a triple (`&Triple`, `&TripleRef` or the tokenizer's
    /// `&Statement`), interning all three terms.
    pub fn encode_triple<'a>(&mut self, t: impl Into<TripleRef<'a>>) -> IdTriple {
        let t = t.into();
        IdTriple {
            s: self.encode_ref(&t.subject),
            p: self.encode_ref(&t.predicate),
            o: self.encode_ref(&t.object),
        }
    }

    /// Encodes a batch of triples — owned ([`Triple`]), borrowed
    /// ([`TripleRef`]) or still in their text (`rdf_model::Statement`, as
    /// the N-Triples tokenizer yields them: each is viewed as a
    /// `TripleRef` for the moment it is interned).
    ///
    /// The ids are always those of an [`Dictionary::encode_triple`] loop
    /// over the batch: known terms keep their ids and new ones take the
    /// next ids in first-seen order. Into an *empty* dictionary this is a
    /// bulk load, which then moves every term into the frozen tier: their
    /// keys ([`crate::term_key`]) sorted and front coded, with the two
    /// permutations between key order and ids. Into a dictionary that
    /// holds terms, new terms join the delta tier.
    ///
    /// A statement whose subject is the previous statement's reuses its
    /// id after one comparison, without the prefix and term lookups. A
    /// document lists a subject's statements together — 82 % of the
    /// benchmark's generated statements repeat the subject before them —
    /// and input in any other order pays that one comparison a statement.
    /// Predicates are few and repeat throughout, so the batch remembers
    /// the last id of each of 16 slots, picked by the predicate's length
    /// and last byte, and a repeat costs one comparison too.
    ///
    /// `threads` is an upper bound on the workers the encode may use, and
    /// it uses one: the loop costs about 80 ns per term occurrence, an
    /// eighth of a load, and sharding it across two cores did not move a
    /// 500k-triple load's end-to-end time while holding 13 MB more at the
    /// peak (ARCHITECTURE.md has the pairs). Callers size `threads` from
    /// `bulk::Config::effective_threads`, as they do the index build's.
    ///
    /// A batch that leaves a non-empty dictionary at least twice as large
    /// as it found it ends by giving back the room the doubling buffers
    /// reserved beyond their content ([`Dictionary::shrink_to_fit`]); a
    /// small batch into a large dictionary does not, so a stream of them
    /// never copies per call. A bulk load's frozen tier is exact-sized.
    pub fn encode_triples_parallel<T>(&mut self, triples: &[T], _threads: usize) -> Vec<IdTriple>
    where
        for<'t> &'t T: Into<TripleRef<'t>>,
    {
        let before = self.len();
        let mut subject: Option<(TermRef<'_>, Id)> = None;
        let mut predicates: [Option<(TermRef<'_>, Id)>; PREDICATE_MEMO] = Default::default();
        let mut ids = Vec::with_capacity(triples.len());
        for t in triples {
            let t: TripleRef<'_> = t.into();
            let s = match &subject {
                Some((term, id)) if *term == t.subject => *id,
                _ => {
                    let id = self.encode_ref(&t.subject);
                    subject = Some((t.subject, id));
                    id
                }
            };
            let text = t.predicate.pieces().0.as_bytes();
            let slot =
                (text.len() ^ usize::from(text.last().copied().unwrap_or(0))) % PREDICATE_MEMO;
            let p = match &predicates[slot] {
                Some((term, id)) if *term == t.predicate => *id,
                _ => {
                    let id = self.encode_ref(&t.predicate);
                    predicates[slot] = Some((t.predicate, id));
                    id
                }
            };
            ids.push(IdTriple { s, p, o: self.encode_ref(&t.object) });
        }
        if before == 0 {
            self.freeze();
        } else if self.len() > before && (self.len() - before) * 2 >= self.len() {
            self.shrink_to_fit();
        }
        ids
    }

    /// Moves every term of a dictionary that has only a delta tier into
    /// the frozen tier, keeping its id.
    fn freeze(&mut self) {
        debug_assert_eq!(self.frozen.len, 0, "only a delta tier is frozen");
        let n = self.inner.len();
        if n == 0 {
            return;
        }
        // Every key back to back, then the delta can go before the sort.
        let mut keys = Vec::new();
        let mut ends: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let (kind, prefix, own) = self.inner.parts(i).expect("a delta id decodes");
            match kind {
                TermKind::Iri => front::push_key(&mut keys, kind, None, &[prefix, own]),
                TermKind::Blank | TermKind::Literal => {
                    front::push_key(&mut keys, kind, None, &[own])
                }
                _ => front::push_key(&mut keys, kind, Some(prefix), &[own]),
            }
            ends.push(
                u32::try_from(keys.len()).expect("the frozen dictionary tier is below 4 GiB"),
            );
        }
        self.inner = Arc::default();
        let key = |i: u32| {
            let i = i as usize;
            &keys[if i == 0 { 0 } else { ends[i - 1] as usize }..ends[i] as usize]
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let front = FrontImage::build(order.iter().map(|&i| key(i)), &order, front::BLOCK);
        self.frozen = Arc::new(front);
    }

    /// Shrinks the delta tier's head column, its two offset tables and
    /// its two string arenas to their content. They grow by doubling, so
    /// after a load up to half of each is reserved and never written;
    /// [`Dictionary::heap_bytes`] counts that room. (The reverse indexes
    /// are power-of-two tables sized for their load factor, built
    /// exact-sized, and have none to give back; the frozen tier is built
    /// exact-sized.)
    pub fn shrink_to_fit(&mut self) {
        let inner = Arc::make_mut(&mut self.inner);
        inner.heads.shrink_to_fit();
        inner.terms.shrink_to_fit();
        inner.prefixes.shrink_to_fit();
    }

    /// Looks up an already-interned triple. Returns `None` if any component
    /// has never been seen (in which case no store can contain the triple).
    pub fn triple_ids(&self, t: &Triple) -> Option<IdTriple> {
        Some(IdTriple {
            s: self.id_of(&t.subject)?,
            p: self.id_of(&t.predicate)?,
            o: self.id_of(&t.object)?,
        })
    }

    /// Decodes an encoded triple back to terms.
    pub fn decode_triple(&self, t: IdTriple) -> Option<Triple> {
        Some(Triple::new(self.decode(t.s)?, self.decode(t.p)?, self.decode(t.o)?))
    }

    /// Iterates `(id, term)` pairs in id order, materializing each term
    /// from its tier.
    pub fn iter(&self) -> impl Iterator<Item = (Id, Term)> + '_ {
        (0..self.len() as u32).filter_map(move |i| Some((Id(i), self.decode(Id(i))?)))
    }

    /// The interned terms in id order, materialized: `terms()[i]` is the
    /// term of `Id(i)`.
    pub fn terms(&self) -> Vec<Term> {
        self.iter().map(|(_, t)| t).collect()
    }

    /// The frozen tier's columns, as the hexsnap `DICT` section stores
    /// them and [`Dictionary::from_tiers`] takes them.
    pub fn front(&self) -> &FrontImage {
        &self.frozen
    }

    /// The delta tier's per-term head column, exactly as the hexsnap
    /// `DICT` section stores it: the [`TermKind`] discriminant (0 IRI, 1
    /// blank, 2 plain literal, 3 language-tagged literal, 4 typed literal)
    /// in the low three bits, the prefix id above them, packed at the
    /// width of the largest head.
    pub fn term_heads(&self) -> PackedView<'_> {
        self.inner.heads.view()
    }

    /// The cumulative end of each delta term's own bytes in
    /// [`Dictionary::arena_bytes`], packed at the width of the last.
    pub fn term_ends(&self) -> PackedView<'_> {
        self.inner.terms.ends.view()
    }

    /// The delta terms' own bytes, back to back.
    pub fn arena_bytes(&self) -> &[u8] {
        self.inner.terms.arena.get()
    }

    /// The cumulative end of each delta prefix in
    /// [`Dictionary::prefix_bytes`], packed at the width of the last;
    /// prefix 0 is the empty string.
    pub fn prefix_ends(&self) -> PackedView<'_> {
        self.inner.prefixes.ends.view()
    }

    /// The delta prefixes' bytes, back to back.
    pub fn prefix_bytes(&self) -> &[u8] {
        self.inner.prefixes.arena.get()
    }

    /// A copy of the delta tier's five columns, as
    /// [`Dictionary::try_from_arena`] takes them.
    pub fn image(&self) -> ArenaImage {
        ArenaImage {
            heads: PackedColumn::from_view(self.term_heads()),
            ends: PackedColumn::from_view(self.term_ends()),
            arena: self.arena_bytes().to_vec().into(),
            prefix_ends: PackedColumn::from_view(self.prefix_ends()),
            prefixes: self.prefix_bytes().to_vec().into(),
        }
    }

    /// True when the term bytes are a window into shared (typically
    /// memory-mapped) storage rather than owned heap bytes: the frozen
    /// tier's blocks when it holds terms, else the delta's arena.
    pub fn arena_is_shared(&self) -> bool {
        if self.frozen.len > 0 {
            self.frozen.bytes.is_shared()
        } else {
            self.inner.terms.arena.is_shared()
        }
    }

    /// Rebuilds a dictionary of a delta tier only from its five columns:
    /// [`Dictionary::from_tiers`] with an empty frozen tier.
    pub fn try_from_arena(image: ArenaImage) -> Result<Self, ArenaError> {
        Dictionary::from_tiers(FrontImage::default(), image)
    }

    /// Rebuilds a dictionary from its frozen tier's two columns and its
    /// delta tier's five — the snapshot fast path. Validates the frozen
    /// tier in one sequential pass ([`FrontImage`]'s checks: block
    /// offsets, every varint inside its block, shared prefixes, strictly
    /// ascending keys, each one a term's), the delta's three integer
    /// columns (each the canonical packed image of its values), both its
    /// offset tables (monotone cover, UTF-8, char boundaries), every head
    /// (kind, prefix id) and the one representation each term has
    /// ([`ArenaError`] lists the ways an image can fail it), builds the
    /// delta's two reverse indexes in one hash pass each, and refuses a
    /// delta term the frozen tier holds; no `Term` is constructed. The
    /// frozen tier gets no hash index.
    ///
    /// A column whose bytes are shared (an open memory map) is validated
    /// against them as they are now and never copied onto the heap, so a
    /// dictionary of shared columns holds the delta's two reverse indexes
    /// and nothing else there. The provider is trusted not to change them
    /// afterwards; if it does anyway, lookups may miss and decodes may
    /// return `None`, but nothing panics.
    pub fn from_tiers(front: FrontImage, image: ArenaImage) -> Result<Self, ArenaError> {
        let ArenaImage { heads, ends, arena, prefix_ends, prefixes: prefix_arena } = image;
        if heads.len() != ends.len() {
            return Err(ArenaError::ColumnLengths { heads: heads.len(), ends: ends.len() });
        }
        check_counts((heads.len(), arena.len()), (prefix_ends.len(), prefix_arena.len()))?;
        let terms = front.len.saturating_add(heads.len());
        if terms > TERM_IDS {
            return Err(ArenaError::TooMany { table: "terms", count: terms, limit: TERM_IDS });
        }
        front.validate()?;
        for (column, ints) in [("heads", &heads), ("ends", &ends), ("prefix ends", &prefix_ends)] {
            ints.view().validate().map_err(|error| ArenaError::Packed { column, error })?;
        }
        let terms = Strings { ends, arena };
        let prefixes = Strings { ends: prefix_ends, arena: prefix_arena };
        terms.validate()?;
        prefixes.validate()?;
        if prefixes.len() == 0 || !prefixes.view().get(0).is_empty() {
            return Err(ArenaError::EmptyPrefixMissing);
        }
        let inner = Inner {
            heads,
            terms,
            index: TermIndex::default(),
            prefixes,
            prefix_index: TermIndex::default(),
        };
        // One hash pass per table over borrowed bytes. Distinctness falls
        // out of the build — a probe that finds an equal key is a corrupt
        // image, not a second id.
        let (table, terms) = (inner.prefixes.view(), inner.terms());
        let prefix_index = TermIndex::of_distinct(
            table.ends.len(),
            |p| hash_key(0, table.get(p as usize)),
            |a, b| table.get(a as usize) == table.get(b as usize),
        )
        .ok_or(ArenaError::DuplicatePrefix)?;
        for (i, head) in terms.heads.values().enumerate() {
            let (kind, prefix_id) = unpack(head);
            let kind = TermKind::from_byte(kind).ok_or(ArenaError::UnknownKind(kind))?;
            if prefix_id as usize >= table.ends.len() {
                return Err(ArenaError::PrefixOutOfRange(prefix_id));
            }
            check_canonical(kind, prefix_id, table.get(prefix_id as usize), terms.own.get(i))?;
        }
        let index = TermIndex::of_distinct(
            terms.heads.len(),
            |t| terms.hash(t),
            |a, b| terms.is(b, terms.heads.get(a as usize), terms.own.get(a as usize)),
        )
        .ok_or(ArenaError::Duplicate)?;
        let dict = Dictionary {
            frozen: Arc::new(front),
            inner: Arc::new(Inner { index, prefix_index, ..inner }),
        };
        // A delta term the frozen tier holds too would have two ids.
        if dict.frozen.len > 0 {
            for local in 0..dict.inner.len() {
                let id = Id((dict.frozen.len + local) as u32);
                if dict.term(id).is_some_and(|t| dict.frozen_id(&t).is_some()) {
                    return Err(ArenaError::Duplicate);
                }
            }
        }
        Ok(dict)
    }

    /// Exact heap footprint of the dictionary in bytes: the sum of
    /// [`Dictionary::heap_breakdown`]'s parts.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }

    /// Where the heap bytes go: the two tiers' fixed fields, the frozen
    /// tier's blocks, block offsets and permutations, and the delta's head
    /// column, two offset tables, two string arenas and two reverse
    /// indexes' slot columns — each a single flat buffer, counted at
    /// capacity. String bytes appear exactly once (the reverse indexes
    /// store only ids, keyed by the same arena bytes); a shared (mapped)
    /// column or arena contributes nothing, since its bytes are
    /// file-backed rather than heap-allocated.
    pub fn heap_breakdown(&self) -> DictHeap {
        let inner = &*self.inner;
        let (frozen, blocks, permutations) = self.frozen.heap_bytes();
        DictHeap {
            interior: std::mem::size_of::<Inner>() + std::mem::size_of::<FrontImage>(),
            frozen,
            blocks,
            permutations,
            heads: inner.heads.heap_bytes(),
            ends: inner.terms.ends.heap_bytes(),
            arena: inner.terms.arena.heap_bytes(),
            term_index: inner.index.slots.heap_bytes(),
            prefix_ends: inner.prefixes.ends.heap_bytes(),
            prefix_bytes: inner.prefixes.arena.heap_bytes(),
            prefix_index: inner.prefix_index.slots.heap_bytes(),
        }
    }

    /// Health of the delta tier's term index: how full it is and how far
    /// linear probing has displaced entries from their home slots. Pure
    /// counts over the current table — the same terms interned in the same
    /// order always report the same numbers, on any host. (The frozen tier
    /// has no hash index.)
    pub fn index_stats(&self) -> IndexStats {
        let inner = &*self.inner;
        let terms = inner.terms();
        let (total, max_displacement) = inner.index.displacement(|id| terms.hash(id));
        let terms = inner.len();
        IndexStats {
            slots: inner.index.slots.len(),
            terms,
            mean_displacement: if terms == 0 { 0.0 } else { total as f64 / terms as f64 },
            max_displacement,
        }
    }
}

/// [`Dictionary::heap_breakdown`]: the dictionary's heap bytes by part.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DictHeap {
    /// The two tiers' fixed fields.
    pub interior: usize,
    /// The frozen tier's front-coded blocks.
    pub frozen: usize,
    /// The frozen tier's block offsets.
    pub blocks: usize,
    /// The frozen tier's id and rank columns.
    pub permutations: usize,
    /// The term heads.
    pub heads: usize,
    /// The cumulative ends of the terms' own bytes.
    pub ends: usize,
    /// The terms' own bytes.
    pub arena: usize,
    /// The term index's slots.
    pub term_index: usize,
    /// The cumulative ends of the prefixes.
    pub prefix_ends: usize,
    /// The prefixes' bytes.
    pub prefix_bytes: usize,
    /// The prefix index's slots.
    pub prefix_index: usize,
}

impl DictHeap {
    /// The sum of the parts: [`Dictionary::heap_bytes`].
    pub fn total(&self) -> usize {
        self.interior
            + self.frozen
            + self.blocks
            + self.permutations
            + self.heads
            + self.ends
            + self.arena
            + self.term_index
            + self.prefix_ends
            + self.prefix_bytes
            + self.prefix_index
    }
}

/// What [`Dictionary::index_stats`] reports about the term index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexStats {
    /// Slots in the open-addressing table (a power of two, or 0 while
    /// none has been allocated).
    pub slots: usize,
    /// Entries in the table: one per interned term.
    pub terms: usize,
    /// Mean distance, in slots, between an entry and the home slot its
    /// hash names — the extra probes a hit on it costs.
    pub mean_displacement: f64,
    /// The longest such distance.
    pub max_displacement: usize,
}

impl IndexStats {
    /// Share of slots occupied.
    pub fn load_factor(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.terms as f64 / self.slots as f64
        }
    }
}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary")
            .field("terms", &self.len())
            .field("frozen", &self.frozen_len())
            .field("arena_bytes", &self.arena_bytes().len())
            .field("prefixes", &self.prefix_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::SharedBytes;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    const XSD_INT: &str = "http://www.w3.org/2001/XMLSchema#int";

    #[test]
    fn encode_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        let a = d.encode(&iri("a"));
        let b = d.encode(&iri("b"));
        let a2 = d.encode(&iri("a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, Id(0));
        assert_eq!(b, Id(1));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_inverts_encode() {
        let mut d = Dictionary::new();
        let terms = [
            iri("a"),
            Term::iri("urn:no-separator"),
            Term::iri("http://x/ends/in/a/slash/"),
            Term::iri("http://x/ns#frag"),
            Term::literal("lit/with#separators"),
            Term::blank("b0"),
            Term::lang_literal("x", "en"),
            Term::lang_literal("no tag", ""),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
        ];
        let ids: Vec<Id> = terms.iter().map(|t| d.encode(t)).collect();
        for (id, term) in ids.iter().zip(&terms) {
            assert_eq!(d.decode(*id).as_ref(), Some(term));
            assert_eq!(d.term(*id).map(|t| t.to_owned()).as_ref(), Some(term));
            assert_eq!(d.id_of(term), Some(*id));
        }
    }

    #[test]
    fn the_split_rule_gives_each_term_one_prefix_and_its_own_bytes() {
        let cases = [
            (TermRef::iri("http://x/ns#a/b"), TermKind::Iri, "http://x/ns#a/", "b"),
            (TermRef::iri("http://x/ns#ab"), TermKind::Iri, "http://x/ns#", "ab"),
            (TermRef::iri("http://x/"), TermKind::Iri, "http://x/", ""),
            (TermRef::iri("urn:isbn:1"), TermKind::Iri, "", "urn:isbn:1"),
            (TermRef::blank("b/0"), TermKind::Blank, "", "b/0"),
            (TermRef::literal("a/b"), TermKind::Literal, "", "a/b"),
            (TermRef::lang_literal("chat", "fr"), TermKind::LangLiteral, "fr", "chat"),
            (TermRef::typed_literal("1", XSD_INT), TermKind::TypedLiteral, XSD_INT, "1"),
        ];
        for (term, kind, prefix, own) in cases {
            assert_eq!(split(&term), (kind, prefix, own), "{term}");
        }
    }

    #[test]
    fn a_namespace_is_stored_once_and_literal_tags_and_datatypes_are_prefixes() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            d.encode(&iri(&format!("r{i}")));
            d.encode(&Term::lang_literal(format!("v{i}"), "en"));
            d.encode(&Term::typed_literal(format!("{i}"), XSD_INT));
        }
        // "", "http://x/", "en" and the datatype, in first-seen order.
        assert_eq!(d.prefix_count(), 4);
        assert_eq!(d.prefix_bytes(), format!("http://x/en{XSD_INT}").as_bytes());
        let want = [(TermKind::Iri, 1), (TermKind::LangLiteral, 2), (TermKind::TypedLiteral, 3)];
        let heads: Vec<u32> = d.term_heads().iter(0..3).collect();
        assert_eq!(heads, want.map(|(kind, prefix)| head(kind, prefix)));
        // Heads of prefix ids up to 3 and kinds up to 4 take 5 bits each.
        assert_eq!(d.term_heads().width(), 5);
        assert!(!d.arena_bytes().windows(4).any(|w| w == b"http"), "namespace left the arena");
    }

    #[test]
    fn id_minting_stops_short_of_the_empty_slot() {
        assert_eq!(mint_id(0, TERM_IDS, "t"), 0);
        assert_eq!(mint_id(TERM_IDS - 1, TERM_IDS, "t"), (TERM_IDS - 1) as u32);
        assert_eq!(mint_id(PREFIX_IDS - 1, PREFIX_IDS, "p"), (PREFIX_IDS - 1) as u32);
        for (len, limit) in [(TERM_IDS, TERM_IDS), (PREFIX_IDS, PREFIX_IDS)] {
            let refused = std::panic::catch_unwind(|| mint_id(len, limit, "ids"));
            assert!(refused.is_err(), "id {len} of {limit} minted");
        }
        // The largest table's ids stay below its empty-slot marker.
        let slots = slots_for(TERM_IDS);
        assert_eq!(slots, 1 << 31);
        assert!(TERM_IDS - 1 < empty_slot(slots) as usize);
    }

    #[test]
    #[should_panic(expected = "dictionary overflow: more than 7·2^28 terms")]
    fn the_empty_slot_marker_is_never_a_term_id() {
        mint_id(TERM_IDS, TERM_IDS, "7·2^28 terms");
    }

    #[test]
    fn a_count_the_bytes_cannot_keep_distinct_or_the_ids_cannot_hold_is_refused() {
        let max = u32::MAX as usize;
        // (terms, term arena bytes), (prefixes, prefix arena bytes).
        assert_eq!(check_counts((40, 30), (3, 2)), Ok(()));
        assert_eq!(check_counts((45, 30), (3, 2)), Ok(()));
        assert_eq!(check_counts((46, 30), (3, 2)), Err(ArenaError::Duplicate));
        assert_eq!(check_counts((max, 0), (1, 0)), Err(ArenaError::Duplicate));
        assert_eq!(check_counts((1, 1), (4, 2)), Err(ArenaError::DuplicatePrefix));
        assert_eq!(check_counts((1, 1), (max, 0)), Err(ArenaError::DuplicatePrefix));
        let too_many = |table, count, limit| Err(ArenaError::TooMany { table, count, limit });
        assert_eq!(check_counts((TERM_IDS, TERM_IDS), (1, 0)), Ok(()));
        assert_eq!(
            check_counts((TERM_IDS + 1, TERM_IDS + 1), (1, 0)),
            too_many("terms", TERM_IDS + 1, TERM_IDS)
        );
        assert_eq!(
            check_counts((1, 1), (PREFIX_IDS + 1, PREFIX_IDS)),
            too_many("prefixes", PREFIX_IDS + 1, PREFIX_IDS)
        );
    }

    #[test]
    fn a_table_has_the_fewest_slots_that_keep_its_load_at_seven_eighths() {
        assert_eq!(slots_for(0), 0);
        for n in 1..5_000usize {
            let slots = slots_for(n);
            assert!(slots.is_power_of_two() && slots * 7 >= n * 8, "{n}: {slots}");
            assert!(slots / 2 * 7 < n * 8, "{n}: {slots} is not the fewest");
            // Every id of such a table is below its empty-slot marker.
            assert!(n - 1 < empty_slot(slots) as usize, "{n}: {slots}");
        }
        // Interning grows the table by the same rule a read table is
        // built by.
        let mut d = Dictionary::new();
        for i in 0..1_000 {
            d.encode(&iri(&format!("r{i}")));
            assert_eq!(d.index_stats().slots, slots_for(d.len()), "{i}");
        }
    }

    #[test]
    fn borrowed_terms_encode_like_owned_ones_and_term_views_the_arena() {
        let mut d = Dictionary::new();
        let owned = Term::lang_literal("héllo", "fr");
        let id = d.encode(TermRef::lang_literal("héllo", "fr"));
        assert_eq!(d.encode(&owned), id);
        let borrowed = TermRef::from(&owned);
        assert_eq!(d.encode(&borrowed), id);
        assert_eq!(d.id_of(TermRef::lang_literal(String::from("héllo"), "fr")), Some(id));
        assert_eq!(d.len(), 1);
        let view = d.term(id).unwrap();
        assert_eq!(view, borrowed);
        let (lexical, tag) = view.pieces();
        assert!(d.arena_bytes().as_ptr_range().contains(&lexical.as_ptr()));
        assert!(d.prefix_bytes().as_ptr_range().contains(&tag.unwrap().as_ptr()));
        assert_eq!(d.decode(id), Some(owned));
        assert_eq!(d.term(Id(1)), None);
        // An IRI without a prefix borrows too; one with a prefix owns its
        // joined text.
        let bare = d.encode(&Term::iri("urn:x"));
        let text = d.term(bare).unwrap().pieces().0.as_ptr();
        assert!(d.arena_bytes().as_ptr_range().contains(&text), "borrowed from the arena");
        let prefixed = d.encode(&iri("a"));
        assert_eq!(d.term(prefixed).unwrap().pieces().0, "http://x/a");
    }

    #[test]
    fn distinct_literal_forms_get_distinct_ids() {
        let mut d = Dictionary::new();
        // Same lexical form, different term kinds/tags must not collide.
        let plain = d.encode(&Term::literal("MIT"));
        let lang = d.encode(&Term::lang_literal("MIT", "en"));
        let iri = d.encode(&Term::iri("MIT"));
        let blank = d.encode(&Term::blank("MIT"));
        let ids = [plain, lang, iri, blank];
        assert_eq!(ids.iter().collect::<std::collections::HashSet<_>>().len(), 4);
    }

    #[test]
    fn adjacent_pieces_do_not_alias() {
        // "ab" + lang "c" must differ from "a" + lang "bc", and an IRI
        // whose text is a prefix plus own bytes from another split must
        // not meet it either.
        let mut d = Dictionary::new();
        let x = d.encode(&Term::lang_literal("ab", "c"));
        let y = d.encode(&Term::lang_literal("a", "bc"));
        assert_ne!(x, y);
        assert_eq!(d.decode(x), Some(Term::lang_literal("ab", "c")));
        assert_eq!(d.decode(y), Some(Term::lang_literal("a", "bc")));
        let p = d.encode(&Term::iri("http://x/a/b"));
        let q = d.encode(&Term::iri("http://x/ab"));
        assert_ne!(p, q);
        assert_eq!(d.decode(p), Some(Term::iri("http://x/a/b")));
    }

    #[test]
    fn id_of_does_not_intern() {
        let mut d = Dictionary::new();
        assert_eq!(d.id_of(&iri("a")), None);
        assert_eq!((d.len(), d.prefix_count()), (0, 1));
        d.encode(&iri("a"));
        assert_eq!(d.id_of(&iri("a")), Some(Id(0)));
        // A known prefix with unknown own bytes, and an unknown prefix.
        assert_eq!(d.id_of(&iri("b")), None);
        assert_eq!(d.id_of(&Term::iri("http://y/a")), None);
        assert_eq!((d.len(), d.prefix_count()), (1, 2));
    }

    #[test]
    fn triple_roundtrip() {
        let mut d = Dictionary::new();
        let t = Triple::new(iri("ID1"), iri("advisor"), iri("ID2"));
        let enc = d.encode_triple(&t);
        assert_eq!(d.decode_triple(enc), Some(t.clone()));
        assert_eq!(d.triple_ids(&t), Some(enc));
    }

    #[test]
    fn triple_ids_of_unknown_term_is_none() {
        let mut d = Dictionary::new();
        d.encode_triple(&Triple::new(iri("a"), iri("p"), iri("b")));
        let unknown = Triple::new(iri("a"), iri("p"), iri("zzz"));
        assert_eq!(d.triple_ids(&unknown), None);
    }

    #[test]
    fn decode_out_of_range_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.decode(Id(0)), None);
        assert_eq!(d.decode_triple(IdTriple::from((0, 1, 2))), None);
    }

    #[test]
    fn iter_yields_id_order() {
        let mut d = Dictionary::new();
        d.encode(&iri("a"));
        d.encode(&iri("b"));
        let pairs: Vec<(Id, String)> = d.iter().map(|(i, t)| (i, t.to_string())).collect();
        assert_eq!(pairs[0].0, Id(0));
        assert_eq!(pairs[1].0, Id(1));
        assert!(pairs[0].1.contains("/a"));
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let mut d = Dictionary::new();
        let empty = d.heap_bytes();
        for i in 0..100 {
            d.encode(&iri(&format!("term{i}")));
        }
        assert!(d.heap_bytes() > empty);
    }

    #[test]
    fn a_bulk_encode_leaves_the_buffers_exact_sized_and_small_batches_leave_them_alone() {
        let image = |c: PackedView<'_>| c.bytes().len();
        let content = |d: &Dictionary| {
            std::mem::size_of::<Inner>()
                + std::mem::size_of::<FrontImage>()
                + d.front().bytes.len()
                + image(d.front().offsets.view())
                + image(d.front().ids.view())
                + image(d.front().ranks.view())
                + image(d.term_heads())
                + image(d.term_ends())
                + d.arena_bytes().len()
                + image(d.inner.index.slots.view())
                + image(d.prefix_ends())
                + d.prefix_bytes().len()
                + image(d.inner.prefix_index.slots.view())
        };
        let batch = |range: std::ops::Range<u32>| -> Vec<Triple> {
            range
                .map(|i| {
                    Triple::new(
                        iri(&format!("s{i}")),
                        Term::iri(format!("http://p/{}", i % 3)),
                        Term::lang_literal(format!("o{i}"), format!("t{}", i % 50)),
                    )
                })
                .collect()
        };
        let mut d = Dictionary::new();
        d.encode_triples_parallel(&batch(0..1000), 1);
        assert_eq!((d.len(), d.frozen_len()), (2003, 2003));
        assert_eq!(d.heap_bytes(), content(&d), "a bulk load's frozen tier is exact-sized");
        // A batch that doubles the dictionary is a load into the delta,
        // which gives its growth slack back.
        d.encode_triples_parallel(&batch(1000..3000), 1);
        assert_eq!((d.len(), d.frozen_len()), (6003, 2003));
        assert_eq!(d.heap_bytes(), content(&d), "a load gives its growth slack back");
        // Ten more triples, a word more of every packed column: the full
        // buffers double, and a batch that small does not trim them again.
        d.encode_triples_parallel(&batch(3000..3010), 1);
        let doubled = d.heap_bytes();
        assert!(doubled - content(&d) > content(&d) / 4, "doubled buffers keep their room");
        d.encode_triples_parallel(&batch(3010..3011), 1);
        assert_eq!(d.heap_bytes(), doubled, "no reallocation per call");
        // A batch that doubles the dictionary again is a load again.
        d.encode_triples_parallel(&batch(4000..10000), 1);
        assert_eq!(d.heap_bytes(), content(&d));
        // A shared clone is trimmed through copy-on-write, not in place.
        let mut grown = Dictionary::new();
        for t in batch(0..100) {
            grown.encode_triple(&t);
        }
        let snapshot = grown.clone();
        grown.shrink_to_fit();
        assert_eq!(grown.heap_bytes(), content(&grown));
        assert_eq!(snapshot.len(), grown.len());
    }

    #[test]
    fn a_batch_encodes_runs_of_one_subject_as_the_triple_loop_does() {
        let t = |s: &str, p: &str, o: Term| Triple::new(iri(s), iri(p), o);
        let batch = [
            t("a", "p", Term::literal("x")),
            t("a", "p", Term::literal("y")),
            t("a", "q", iri("b")),
            t("b", "p", iri("a")),
            t("a", "p", Term::lang_literal("x", "en")),
            t("a", "p", iri("a")),
            // Predicates that share a memo slot (same length, same last
            // byte) must not share an id.
            t("a", "rp", iri("c")),
            t("c", "sp", iri("a")),
            t("c", "rp", Term::typed_literal("x", XSD_INT)),
        ];
        // Into an empty dictionary: the loop's ids, and every term frozen.
        let mut looped = Dictionary::new();
        let want: Vec<IdTriple> = batch.iter().map(|t| looped.encode_triple(t)).collect();
        let mut batched = Dictionary::new();
        assert_eq!(batched.encode_triples_parallel(&batch, 1), want);
        assert_eq!(batched.terms(), looped.terms());
        assert_eq!(batched.frozen_len(), looped.len());
        assert_eq!(batched.image(), Dictionary::new().image(), "the delta tier is empty");
        // Into a dictionary that holds terms: the loop's ids and columns.
        let mut looped = Dictionary::new();
        looped.encode(&iri("z"));
        let mut batched = looped.clone();
        let want: Vec<IdTriple> = batch.iter().map(|t| looped.encode_triple(t)).collect();
        assert_eq!(batched.encode_triples_parallel(&batch, 1), want);
        assert_eq!(batched.image(), looped.image());
    }

    #[test]
    fn terms_interned_after_a_bulk_load_join_the_delta_and_keep_their_ids() {
        let mut d = Dictionary::new();
        let batch = [Triple::new(iri("b"), iri("p"), Term::lang_literal("x", "en"))];
        d.encode_triples_parallel(&batch, 1);
        assert_eq!(d.frozen_len(), 3);
        let snapshot = d.clone();
        let a = d.encode(&iri("a"));
        assert_eq!(a, Id(3), "above the frozen ids, though its key sorts first");
        assert_eq!(d.encode(&iri("b")), Id(0));
        assert_eq!(d.encode_triples_parallel(&batch, 1), [snapshot.triple_ids(&batch[0]).unwrap()]);
        assert_eq!(d.id_of(&iri("a")), Some(a));
        assert_eq!(snapshot.id_of(&iri("a")), None);
        // The two tiers read back through their columns; a delta term the
        // frozen tier holds is a second id.
        let rebuilt = Dictionary::from_tiers(d.front().clone(), d.image()).unwrap();
        assert_eq!(rebuilt.terms(), d.terms());
        let mut twice = Dictionary::new();
        twice.encode(&iri("b"));
        assert_eq!(
            Dictionary::from_tiers(d.front().clone(), twice.image()).err(),
            Some(ArenaError::Duplicate)
        );
    }

    #[test]
    fn shared_subject_and_object_namespace() {
        // Paper §4.1: one mapping table for all roles — an id can occur as
        // subject in one triple and object in another (e.g. ID2 in Fig. 1).
        let mut d = Dictionary::new();
        let t1 = d.encode_triple(&Triple::new(iri("ID3"), iri("advisor"), iri("ID2")));
        let t2 = d.encode_triple(&Triple::new(iri("ID2"), iri("worksFor"), Term::literal("MIT")));
        assert_eq!(t1.o, t2.s);
    }

    fn every_kind() -> Dictionary {
        let mut d = Dictionary::new();
        for t in [
            iri("a"),
            Term::iri("urn:bare"),
            Term::literal("plain"),
            Term::blank("b0"),
            Term::lang_literal("héllo", "fr"),
            Term::typed_literal("7", XSD_INT),
        ] {
            d.encode(&t);
        }
        d
    }

    #[test]
    fn arena_buffers_roundtrip_through_try_from_arena() {
        let d = every_kind();
        let rebuilt = Dictionary::try_from_arena(d.image()).unwrap();
        assert_eq!(rebuilt.len(), d.len());
        for (id, term) in d.iter() {
            assert_eq!(rebuilt.decode(id), Some(term.clone()));
            assert_eq!(rebuilt.id_of(&term), Some(id));
        }
        assert_eq!(rebuilt.image(), d.image());
        // The empty dictionary's image holds the empty prefix.
        let empty = Dictionary::new().image();
        assert_eq!(empty.prefix_ends.values().collect::<Vec<_>>(), [0]);
        assert_eq!(Dictionary::try_from_arena(empty).unwrap().prefix_count(), 1);
    }

    #[test]
    fn try_from_arena_rejects_corrupt_images() {
        let d = every_kind();
        let image = d.image();
        let rejects = |edit: &dyn Fn(&mut Columns)| {
            let mut bad = Columns::of(&image);
            edit(&mut bad);
            Dictionary::try_from_arena(bad.packed(&image)).unwrap_err()
        };
        assert!(Dictionary::try_from_arena(image.clone()).is_ok());
        // Unknown kind bits.
        assert_eq!(rejects(&|i| i.heads[0] |= 7), ArenaError::UnknownKind(7));
        // Column lengths.
        assert_eq!(
            rejects(&|i| {
                i.ends.pop();
            }),
            ArenaError::ColumnLengths { heads: 6, ends: 5 }
        );
        // Non-monotone offsets, and offsets not covering the arena.
        assert_eq!(rejects(&|i| i.ends.swap(0, 1)), ArenaError::OffsetsNotMonotone);
        assert_eq!(rejects(&|i| *i.ends.last_mut().unwrap() -= 1), ArenaError::OffsetsNotMonotone);
        assert_eq!(rejects(&|i| i.prefix_ends.swap(1, 2)), ArenaError::OffsetsNotMonotone);
        let short_prefixes =
            ArenaImage { prefixes: image.prefixes[1..].to_vec().into(), ..image.clone() };
        assert_eq!(
            Dictionary::try_from_arena(short_prefixes).unwrap_err(),
            ArenaError::OffsetsNotMonotone
        );
        // Invalid UTF-8, and an offset inside a character.
        let mut bad = image.clone();
        bad.arena.make_mut()[0] = 0xFF;
        assert_eq!(Dictionary::try_from_arena(bad).unwrap_err(), ArenaError::NotUtf8);
        let mut bad = image.clone();
        bad.prefixes.make_mut()[0] = 0xFF;
        assert_eq!(Dictionary::try_from_arena(bad).unwrap_err(), ArenaError::NotUtf8);
        let e_acute = image.arena.windows(2).position(|w| w == "é".as_bytes()).unwrap() as u32;
        let splits = |i: &mut Columns| {
            let at = i.ends.iter().position(|&e| e > e_acute).unwrap();
            let (old, mid) = (i.ends[at], e_acute + 1);
            i.ends[at] = mid;
            i.ends.insert(at + 1, old);
            i.heads.insert(at + 1, head(TermKind::Literal, 0));
        };
        assert_eq!(rejects(&splits), ArenaError::SplitsChar);
        // A column that is not the canonical image of its values.
        let wide = |values: &[u32]| {
            let width = crate::packed::width_of(values.iter().copied().max().unwrap_or(0)) + 1;
            let mut column = PackedColumn::with_width(values.len(), width);
            values.iter().for_each(|&v| column.push(v));
            column
        };
        let heads: Vec<u32> = image.heads.values().collect();
        let ends: Vec<u32> = image.ends.values().collect();
        let too_wide = |column: &'static str, bad: ArenaImage| {
            assert!(
                matches!(
                    Dictionary::try_from_arena(bad).unwrap_err(),
                    ArenaError::Packed { column: c, error: PackedError::WidthNotTight { .. } }
                        if c == column
                ),
                "{column}"
            );
        };
        too_wide("heads", ArenaImage { heads: wide(&heads), ..image.clone() });
        too_wide("ends", ArenaImage { ends: wide(&ends), ..image.clone() });
        too_wide("prefix ends", ArenaImage { prefix_ends: wide(&[0, 5]), ..image.clone() });
    }

    /// An image's integer columns as plain values, to edit and pack
    /// again.
    struct Columns {
        heads: Vec<u32>,
        ends: Vec<u32>,
        prefix_ends: Vec<u32>,
    }

    impl Columns {
        fn of(image: &ArenaImage) -> Self {
            Columns {
                heads: image.heads.values().collect(),
                ends: image.ends.values().collect(),
                prefix_ends: image.prefix_ends.values().collect(),
            }
        }

        fn packed(&self, image: &ArenaImage) -> ArenaImage {
            ArenaImage {
                heads: PackedColumn::from_values(&self.heads),
                ends: PackedColumn::from_values(&self.ends),
                prefix_ends: PackedColumn::from_values(&self.prefix_ends),
                ..image.clone()
            }
        }
    }

    #[test]
    fn every_non_canonical_image_is_a_named_rejection() {
        // A dictionary of one term, or of one term under an extra prefix.
        let image = |h: u32, own: &str, prefixes: &[&str]| {
            let mut ends = vec![0];
            let mut bytes = String::new();
            for p in prefixes {
                bytes.push_str(p);
                ends.push(bytes.len() as u32);
            }
            ArenaImage {
                heads: PackedColumn::from_values(&[h]),
                ends: PackedColumn::from_values(&[own.len() as u32]),
                arena: own.as_bytes().to_vec().into(),
                prefix_ends: PackedColumn::from_values(&ends),
                prefixes: bytes.into_bytes().into(),
            }
        };
        let check = |what: &str, image: ArenaImage, want: ArenaError| {
            assert_eq!(
                Dictionary::try_from_arena(image.clone()).err(),
                Some(want.clone()),
                "{what}"
            );
            // An image of shared columns is held to the same checks.
            assert_eq!(
                Dictionary::try_from_arena(shared_image(&image)).err(),
                Some(want),
                "{what}"
            );
        };
        let iri = TermKind::Iri;
        let ok = image(head(iri, 1), "a", &["http://x/"]);
        assert!(Dictionary::try_from_arena(ok).is_ok());
        check(
            "an IRI whose own bytes hold a '/'",
            image(head(iri, 1), "a/b", &["http://x/"]),
            ArenaError::IriNotSplitAtLastSeparator,
        );
        check(
            "an unprefixed IRI whose own bytes hold a '#'",
            image(head(iri, 0), "http://x#a", &[]),
            ArenaError::IriNotSplitAtLastSeparator,
        );
        check(
            "an IRI prefix that does not end in '/' or '#'",
            image(head(iri, 1), "a", &["http://x"]),
            ArenaError::IriNotSplitAtLastSeparator,
        );
        check(
            "a blank node with a prefix",
            image(head(TermKind::Blank, 1), "b0", &["x"]),
            ArenaError::PrefixOnUnprefixedKind,
        );
        check(
            "a plain literal with a prefix",
            image(head(TermKind::Literal, 1), "v", &["en"]),
            ArenaError::PrefixOnUnprefixedKind,
        );
        check(
            "a typed literal whose prefix is xsd:string",
            image(head(TermKind::TypedLiteral, 1), "v", &[rdf_model::XSD_STRING]),
            ArenaError::NonCanonicalTyped,
        );
        check(
            "a prefix id out of range",
            image(head(TermKind::LangLiteral, 2), "v", &["en"]),
            ArenaError::PrefixOutOfRange(2),
        );
        check(
            "duplicate prefixes",
            image(head(TermKind::LangLiteral, 1), "v", &["en", "en"]),
            ArenaError::DuplicatePrefix,
        );
        check(
            "a second empty prefix",
            image(head(TermKind::LangLiteral, 1), "v", &[""]),
            ArenaError::DuplicatePrefix,
        );
        check(
            "a first prefix that is not empty",
            ArenaImage {
                prefix_ends: PackedColumn::from_values(&[2]),
                prefixes: b"en".to_vec().into(),
                ..image(3, "v", &[])
            },
            ArenaError::EmptyPrefixMissing,
        );
        check(
            "no prefix table at all",
            ArenaImage { prefix_ends: PackedColumn::default(), ..image(3, "v", &[]) },
            ArenaError::EmptyPrefixMissing,
        );
        let twice = ArenaImage {
            heads: PackedColumn::from_values(&[head(iri, 1); 2]),
            ends: PackedColumn::from_values(&[1, 2]),
            arena: b"aa".to_vec().into(),
            ..image(head(iri, 1), "a", &["http://x/"])
        };
        check("duplicate terms", twice, ArenaError::Duplicate);
    }

    /// `image` with every column a window of one shared provider: the
    /// prefixes, the arena, then the three packed columns.
    fn shared_image(image: &ArenaImage) -> ArenaImage {
        let provider: SharedBytes = Arc::new(
            [&image.prefixes[..], &image.arena, image.heads.view().bytes()]
                .into_iter()
                .chain([image.ends.view().bytes(), image.prefix_ends.view().bytes()])
                .collect::<Vec<_>>()
                .concat(),
        );
        let mut at = 0;
        let mut window = |len: usize| {
            at += len;
            Bytes::shared(Arc::clone(&provider), at - len..at).expect("inside the provider")
        };
        let prefixes = window(image.prefixes.len());
        let arena = window(image.arena.len());
        let mut column = |column: &PackedColumn| {
            let bytes = window(column.view().bytes().len());
            PackedColumn::new(bytes, column.width(), column.len()).expect("the column's shape")
        };
        ArenaImage {
            heads: column(&image.heads),
            ends: column(&image.ends),
            arena,
            prefix_ends: column(&image.prefix_ends),
            prefixes,
        }
    }

    #[test]
    fn shared_arena_reads_without_copying_and_copies_on_write() {
        let mut d = every_kind();
        d.shrink_to_fit();
        let image = d.image();
        let mut shared = Dictionary::try_from_arena(shared_image(&image)).unwrap();
        assert!(shared.arena_is_shared());
        assert_eq!(shared.decode(Id(0)), Some(iri("a")));
        assert_eq!(shared.id_of(&Term::lang_literal("héllo", "fr")), Some(Id(4)));
        assert_eq!(shared.image(), image);
        // Mapped arenas' and columns' bytes are not heap bytes: what is
        // left is the two reverse indexes and the interior.
        let heap = shared.heap_breakdown();
        assert_eq!(
            heap,
            DictHeap { heads: 0, ends: 0, arena: 0, prefix_ends: 0, prefix_bytes: 0, ..heap }
        );
        assert_eq!(heap.total(), heap.interior + heap.term_index + heap.prefix_index);
        assert_eq!(shared.index_stats().slots, d.index_stats().slots);
        // Interning a new term converts the term columns to owned storage,
        // preserving ids; a new prefix converts the prefix columns.
        let new = shared.encode(&iri("new"));
        assert_eq!(new, Id(6));
        assert!(!shared.arena_is_shared());
        assert_eq!(shared.decode(Id(0)), Some(iri("a")));
        let elsewhere = shared.encode(&Term::iri("http://y/z"));
        assert_eq!(shared.decode(elsewhere), Some(Term::iri("http://y/z")));
        assert_eq!(shared.decode(Id(5)), Some(Term::typed_literal("7", XSD_INT)));
        // Out-of-range windows are rejected.
        let provider: SharedBytes = Arc::new(image.arena.to_vec());
        let past = image.arena.len();
        assert!(Bytes::shared(Arc::clone(&provider), past..past + 1).is_none());
        assert!(Bytes::shared(Arc::clone(&provider), past - 8..past + 8).is_none());
        assert!(Bytes::shared(provider, 0..past).is_some());
    }

    #[test]
    fn clone_is_shared_until_written() {
        let mut d = Dictionary::new();
        d.encode(&iri("a"));
        let snapshot = d.clone();
        assert!(Arc::ptr_eq(&d.inner, &snapshot.inner));
        // Hit-path encodes on a shared clone stay shared.
        d.encode(&iri("a"));
        assert!(Arc::ptr_eq(&d.inner, &snapshot.inner));
        // A miss re-owns the interior; the snapshot is unaffected.
        d.encode(&iri("b"));
        assert!(!Arc::ptr_eq(&d.inner, &snapshot.inner));
        assert_eq!(snapshot.len(), 1);
        assert_eq!(d.len(), 2);
        assert_eq!(snapshot.id_of(&iri("a")), Some(Id(0)));
    }
}
