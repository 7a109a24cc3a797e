//! The bidirectional term ⇄ id mapping table, backed by string arenas.
//!
//! Every term is stored as a kind, a prefix id and the term's own bytes.
//! The prefix is the part terms share: an IRI's namespace (its text up to
//! and including the last `/` or `#`), a literal's language tag or
//! datatype IRI. Blank nodes and plain literals have prefix 0, the empty
//! string. Prefixes are interned once into a table of their own, so a
//! namespace that thousands of IRIs repeat is stored once.
//!
//! The in-memory columns mirror the hexsnap `DICT` section byte for byte
//! (term heads, cumulative ends, the own-bytes arena; prefix ends, prefix
//! bytes), so saving is a straight copy of five buffers and loading is a
//! validation plus one hash pass per table — no per-term `Term`
//! construction and no per-term allocation.

use crate::id::{Id, IdTriple};
use rdf_model::{Term, TermKind, TermRef, Triple, TripleRef};
use std::ops::Range;
use std::sync::Arc;

/// Read-only byte storage an arena dictionary can borrow instead of own —
/// in practice a memory-mapped snapshot held open by `hex-disk`, so the
/// string arenas stay on disk and page in on demand.
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// An arena's backing bytes: owned by this dictionary, or a window into
/// shared (typically memory-mapped) storage.
#[derive(Clone)]
enum Arena {
    Owned(Vec<u8>),
    Shared { bytes: SharedBytes, range: Range<usize> },
}

impl Default for Arena {
    fn default() -> Self {
        Arena::Owned(Vec::new())
    }
}

impl Arena {
    /// The arena bytes. A shared provider whose bytes shrank after
    /// construction degrades to an empty slice — lookups then miss and
    /// decodes return `None`, but nothing panics.
    fn bytes(&self) -> &[u8] {
        match self {
            Arena::Owned(v) => v,
            Arena::Shared { bytes, range } => (**bytes).as_ref().get(range.clone()).unwrap_or(&[]),
        }
    }

    /// Converts to owned storage (copying shared bytes once) so the
    /// arena can grow.
    fn make_owned(&mut self) -> &mut Vec<u8> {
        if let Arena::Shared { .. } = self {
            *self = Arena::Owned(self.bytes().to_vec());
        }
        match self {
            Arena::Owned(v) => v,
            Arena::Shared { .. } => unreachable!("just converted to owned"),
        }
    }

    /// Heap bytes held: an owned arena's capacity; a shared one's bytes
    /// are file-backed, not heap-allocated.
    fn heap_bytes(&self) -> usize {
        match self {
            Arena::Owned(v) => v.capacity(),
            Arena::Shared { .. } => 0,
        }
    }
}

/// Strings stored back to back: one cumulative `u32` end per string into
/// one arena.
#[derive(Clone, Default)]
struct Strings {
    ends: Vec<u32>,
    arena: Arena,
}

impl Strings {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The bytes of string `i`. Clamped: an index out of range, or shared
    /// bytes that shrank after validation, yield an empty slice, never a
    /// panic.
    #[inline]
    fn get(&self, i: usize) -> &[u8] {
        let start = match i.checked_sub(1) {
            Some(prev) => self.ends.get(prev).copied().unwrap_or(0),
            None => 0,
        };
        let end = self.ends.get(i).copied().unwrap_or(0);
        self.arena.bytes().get(start as usize..end as usize).unwrap_or(&[])
    }

    fn push(&mut self, s: &[u8]) {
        let arena = self.arena.make_owned();
        arena.extend_from_slice(s);
        self.ends.push(u32::try_from(arena.len()).expect("dictionary string arena exceeds 4 GiB"));
    }

    /// Checks that the ends are a monotone cover of a UTF-8 arena that
    /// cut it only on character boundaries.
    fn validate(&self) -> Result<(), ArenaError> {
        let bytes = self.arena.bytes();
        if self.ends.windows(2).any(|w| w[0] > w[1])
            || self.ends.last().map_or(0, |&e| e as usize) != bytes.len()
        {
            return Err(ArenaError::OffsetsNotMonotone);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| ArenaError::NotUtf8)?;
        if self.ends.iter().any(|&e| !text.is_char_boundary(e as usize)) {
            return Err(ArenaError::SplitsChar);
        }
        Ok(())
    }

    fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        if let Arena::Owned(bytes) = &mut self.arena {
            bytes.shrink_to_fit();
        }
    }

    fn heap_bytes(&self) -> usize {
        self.ends.capacity() * 4 + self.arena.heap_bytes()
    }
}

/// An empty open-addressing slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// Open-addressing hash table from keys to ids.
///
/// Slots hold ids; keys live in the arenas, so the table itself is one
/// flat `u32` array — no per-entry allocation, and lookups compare
/// borrowed bytes directly. Capacity is a power of two; load factor is
/// kept below 7/8. An entry's home slot is the low bits of its
/// [`hash_key`] hash, which is finalized so that those bits depend on
/// every byte of the key: linear probing then displaces an entry by
/// about two slots on average at this load factor (see
/// [`Dictionary::index_stats`]).
#[derive(Clone, Default)]
struct TermIndex {
    slots: Vec<u32>,
}

/// Slot count (a power of two) comfortably holding `n` entries.
fn slots_for(n: usize) -> usize {
    (n + n / 4 + 8).next_power_of_two()
}

impl TermIndex {
    fn with_capacity(n: usize) -> Self {
        TermIndex { slots: vec![EMPTY_SLOT; slots_for(n)] }
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

    #[inline]
    fn home(&self, hash: u64) -> usize {
        debug_assert!(self.slots.len().is_power_of_two());
        (hash as usize) & (self.slots.len() - 1)
    }

    /// Probes for a key with the given hash: `Ok(id)` when `eq` accepts
    /// an occupied slot, `Err(slot)` with the insertion position when the
    /// probe chain ends at an empty slot. The table must be allocated.
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            match self.slots[i] {
                EMPTY_SLOT => return Err(i),
                id if eq(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Looks a key up without mutating anything; `None` from an
    /// unallocated table too.
    fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, eq).ok()
    }

    /// Inserts an id whose key is known to be absent.
    fn insert_absent(&mut self, hash: u64, id: u32) {
        let slot = self.probe(hash, |_| false).expect_err("no slot compares equal");
        self.slots[slot] = id;
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
                Err(slot) => index.slots[slot] = id,
            }
        }
        Some(index)
    }

    /// Sum and maximum, over the entries, of the distance between the
    /// slot an entry sits in and its home slot.
    fn displacement(&self, hash_of: impl Fn(u32) -> u64) -> (u64, usize) {
        let mask = self.slots.len().wrapping_sub(1);
        let (mut total, mut max) = (0u64, 0usize);
        for (at, &id) in self.slots.iter().enumerate() {
            if id != EMPTY_SLOT {
                let displaced = at.wrapping_sub(self.home(hash_of(id))) & mask;
                total += displaced as u64;
                max = max.max(displaced);
            }
        }
        (total, max)
    }
}

/// Term ids: every `u32` but [`EMPTY_SLOT`].
const TERM_IDS: usize = EMPTY_SLOT as usize;

/// Bits of a term's head that hold its kind; the prefix id sits above.
const KIND_BITS: u32 = 3;

/// Prefix ids a head has room for.
const PREFIX_IDS: usize = 1 << (32 - KIND_BITS);

/// The id of the next entry of a table holding `len` and allowed `limit`
/// ids: ids are dense from 0, and [`EMPTY_SLOT`], which the reverse index
/// reserves for an empty slot, is never one.
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
    heads: Vec<u32>,
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
            heads: Vec::new(),
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

    fn prefix_hash(&self, id: u32) -> u64 {
        hash_key(0, self.prefixes.get(id as usize))
    }

    fn term_hash(&self, id: u32) -> u64 {
        hash_key(self.heads[id as usize], self.terms.get(id as usize))
    }

    /// The id of an interned prefix. The empty prefix is 0 without a
    /// hash or a probe.
    #[inline]
    fn prefix_id(&self, prefix: &[u8]) -> Option<u32> {
        if prefix.is_empty() {
            return Some(0);
        }
        self.prefix_index.find(hash_key(0, prefix), |id| self.prefixes.get(id as usize) == prefix)
    }

    /// The id of a term by its head and own bytes.
    #[inline]
    fn lookup(&self, hash: u64, head: u32, own: &[u8]) -> Option<u32> {
        self.index
            .find(hash, |id| self.heads[id as usize] == head && self.terms.get(id as usize) == own)
    }

    /// Appends a prefix known to be absent, returning its id.
    fn push_prefix(&mut self, prefix: &[u8]) -> u32 {
        let id = mint_id(self.prefixes.len(), PREFIX_IDS, "2^29 prefixes");
        if self.prefix_index.must_grow_for(self.prefixes.len() + 1) {
            self.prefix_index =
                TermIndex::rebuilt(self.prefixes.len() + 1, (0..id).map(|p| self.prefix_hash(p)));
        }
        self.prefixes.push(prefix);
        self.prefix_index.insert_absent(hash_key(0, prefix), id);
        id
    }

    /// Appends a term known to be absent, returning its new id.
    fn push_term(&mut self, head: u32, own: &[u8], hash: u64) -> Id {
        let id = mint_id(self.len(), TERM_IDS, "2^32 − 1 terms");
        if self.index.must_grow_for(self.len() + 1) {
            self.index = TermIndex::rebuilt(self.len() + 1, (0..id).map(|t| self.term_hash(t)));
        }
        self.terms.push(own);
        self.heads.push(head);
        self.index.insert_absent(hash, id);
        Id(id)
    }

    /// Term `i`'s kind, prefix bytes and own bytes; `None` for an id out
    /// of range.
    #[inline]
    fn parts(&self, i: usize) -> Option<(TermKind, &[u8], &[u8])> {
        let (kind, prefix) = unpack(*self.heads.get(i)?);
        Some((TermKind::from_byte(kind)?, self.prefixes.get(prefix as usize), self.terms.get(i)))
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
/// what [`Dictionary::image`] copies out. `A` is how the two byte arenas
/// are given: owned bytes, or windows into shared storage
/// ([`Dictionary::try_from_shared_arena`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaImage<A> {
    /// One head per term: its [`TermKind`] discriminant in the low three
    /// bits, its prefix id above them.
    pub heads: Vec<u32>,
    /// The cumulative end of each term's own bytes in `arena`.
    pub ends: Vec<u32>,
    /// The terms' own bytes, back to back.
    pub arena: A,
    /// The cumulative end of each prefix in `prefixes`. Prefix 0 is the
    /// empty string.
    pub prefix_ends: Vec<u32>,
    /// The prefixes' bytes, back to back.
    pub prefixes: A,
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
    /// A shared byte range lies outside the provider's bytes.
    OutOfBounds,
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
            ArenaError::OutOfBounds => {
                write!(f, "arena range lies outside the shared byte provider")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// Dictionary encoding of RDF terms.
///
/// Maps each distinct [`Term`] to a dense [`Id`] (allocated in first-seen
/// order starting from 0) and back. All stores in the workspace share one
/// dictionary per dataset, exactly as the paper's single "mapping table"
/// (§4.1) serves all six indices.
///
/// Each term is a head (kind and prefix id) plus its own bytes in one
/// arena; the prefixes — IRI namespaces, language tags, datatype IRIs —
/// are interned once each in a second table. Encoding a term that is
/// already present allocates nothing (the lookup hashes and compares
/// borrowed bytes). The in-memory layout mirrors the hexsnap `DICT`
/// section, so snapshot save/load move whole buffers instead of
/// constructing terms. Cloning is O(1): the interior is shared
/// copy-on-write, and only the first mutation of a shared clone re-owns
/// it.
#[derive(Default, Clone)]
pub struct Dictionary {
    inner: Arc<Inner>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Creates an empty dictionary with capacity for `n` distinct terms.
    pub fn with_capacity(n: usize) -> Self {
        let mut inner = Inner::default();
        inner.heads.reserve_exact(n);
        inner.terms.ends.reserve_exact(n);
        inner.index = TermIndex::with_capacity(n);
        Dictionary { inner: Arc::new(inner) }
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.heads.is_empty()
    }

    /// Number of distinct prefixes, the empty one included.
    pub fn prefix_count(&self) -> usize {
        self.inner.prefixes.len()
    }

    /// Interns a term — owned (`&Term`) or borrowed (`&TermRef`, or a
    /// `TermRef` by value) — returning its id. Idempotent: the same term
    /// always yields the same id. The hit path allocates nothing.
    pub fn encode<'a>(&mut self, term: impl Into<TermRef<'a>>) -> Id {
        self.encode_ref(&term.into())
    }

    fn encode_ref(&mut self, term: &TermRef<'_>) -> Id {
        let (kind, prefix, own) = split(term);
        let (prefix, own) = (prefix.as_bytes(), own.as_bytes());
        let prefix_id = match self.inner.prefix_id(prefix) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.inner).push_prefix(prefix),
        };
        let head = head(kind, prefix_id);
        let hash = hash_key(head, own);
        if let Some(id) = self.inner.lookup(hash, head, own) {
            return Id(id);
        }
        Arc::make_mut(&mut self.inner).push_term(head, own, hash)
    }

    /// Looks up the id of a term without interning it. A term whose
    /// prefix was never interned misses without probing the term index.
    pub fn id_of<'a>(&self, term: impl Into<TermRef<'a>>) -> Option<Id> {
        let term = term.into();
        let (kind, prefix, own) = split(&term);
        let prefix_id = self.inner.prefix_id(prefix.as_bytes())?;
        let head = head(kind, prefix_id);
        self.inner.lookup(hash_key(head, own.as_bytes()), head, own.as_bytes()).map(Id)
    }

    /// The term of an id as a view over the arenas. It borrows, except an
    /// IRI with a prefix: its namespace and its own bytes lie apart, so
    /// its text is joined into an owned `Cow` (one allocation). A
    /// literal's lexical form borrows the term arena and its tag or
    /// datatype the prefix table.
    #[inline]
    pub fn term(&self, id: Id) -> Option<TermRef<'_>> {
        let (kind, prefix, own) = self.inner.text(id.index())?;
        match kind {
            TermKind::Iri if prefix.is_empty() => Some(TermRef::iri(own)),
            TermKind::Iri => Some(TermRef::iri([prefix, own].concat())),
            TermKind::Blank | TermKind::Literal => TermRef::from_pieces(kind, own, None),
            _ => TermRef::from_pieces(kind, own, Some(prefix)),
        }
    }

    /// Decodes an id back to an owned term, in one allocation whatever
    /// its kind: an IRI's prefix and own bytes, like a literal's two
    /// pieces, are joined on the stack.
    pub fn decode(&self, id: Id) -> Option<Term> {
        match self.inner.parts(id.index())? {
            (TermKind::Iri, prefix, own) => Term::iri_from_parts(prefix, own),
            _ => self.term(id).map(|t| t.to_owned()),
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
    /// `TripleRef` for the moment it is interned) — exactly as an
    /// [`Dictionary::encode_triple`] loop over the slice does: new terms
    /// are numbered in first-seen order.
    ///
    /// `threads` is an upper bound on the workers the encode may use, and
    /// it uses one: the loop costs about 80 ns per term occurrence, an
    /// eighth of a load, and sharding it across two cores did not move a
    /// 500k-triple load's end-to-end time while holding 13 MB more at the
    /// peak (ARCHITECTURE.md has the pairs). Callers size `threads` from
    /// `bulk::Config::effective_threads`, as they do the index build's.
    ///
    /// A batch that leaves the dictionary at least twice as large as it
    /// found it — a bulk load — ends by giving back the room the doubling
    /// buffers reserved beyond their content
    /// ([`Dictionary::shrink_to_fit`]); a small batch into a large
    /// dictionary does not, so a stream of them never copies per call.
    pub fn encode_triples_parallel<T>(&mut self, triples: &[T], _threads: usize) -> Vec<IdTriple>
    where
        for<'t> &'t T: Into<TripleRef<'t>>,
    {
        let before = self.len();
        let ids = triples.iter().map(|t| self.encode_triple(t)).collect();
        if self.len() > before && (self.len() - before) * 2 >= self.len() {
            self.shrink_to_fit();
        }
        ids
    }

    /// Shrinks the head column, the two offset tables and the two string
    /// arenas to their content. They grow by doubling, so after a load up
    /// to half of each is reserved and never written;
    /// [`Dictionary::heap_bytes`] counts that room. (The reverse indexes
    /// are power-of-two tables sized for their load factor and have none
    /// to give back.)
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
    /// from the arenas.
    pub fn iter(&self) -> impl Iterator<Item = (Id, Term)> + '_ {
        (0..self.len() as u32).filter_map(move |i| Some((Id(i), self.decode(Id(i))?)))
    }

    /// The interned terms in id order, materialized: `terms()[i]` is the
    /// term of `Id(i)`.
    pub fn terms(&self) -> Vec<Term> {
        self.iter().map(|(_, t)| t).collect()
    }

    /// The per-term head column, exactly as the hexsnap `DICT` section
    /// stores it: the [`TermKind`] discriminant (0 IRI, 1 blank, 2 plain
    /// literal, 3 language-tagged literal, 4 typed literal) in the low
    /// three bits, the prefix id above them.
    pub fn term_heads(&self) -> &[u32] {
        &self.inner.heads
    }

    /// The cumulative end of each term's own bytes in
    /// [`Dictionary::arena_bytes`].
    pub fn term_ends(&self) -> &[u32] {
        &self.inner.terms.ends
    }

    /// The terms' own bytes, back to back.
    pub fn arena_bytes(&self) -> &[u8] {
        self.inner.terms.arena.bytes()
    }

    /// The cumulative end of each prefix in [`Dictionary::prefix_bytes`];
    /// prefix 0 is the empty string.
    pub fn prefix_ends(&self) -> &[u32] {
        &self.inner.prefixes.ends
    }

    /// The prefixes' bytes, back to back.
    pub fn prefix_bytes(&self) -> &[u8] {
        self.inner.prefixes.arena.bytes()
    }

    /// A copy of the five columns, as [`Dictionary::try_from_arena`]
    /// takes them.
    pub fn image(&self) -> ArenaImage<Vec<u8>> {
        ArenaImage {
            heads: self.term_heads().to_vec(),
            ends: self.term_ends().to_vec(),
            arena: self.arena_bytes().to_vec(),
            prefix_ends: self.prefix_ends().to_vec(),
            prefixes: self.prefix_bytes().to_vec(),
        }
    }

    /// True when the term arena is a window into shared (typically
    /// memory-mapped) storage rather than owned heap bytes.
    pub fn arena_is_shared(&self) -> bool {
        matches!(self.inner.terms.arena, Arena::Shared { .. })
    }

    /// Rebuilds a dictionary from its five columns — the snapshot fast
    /// path. Validates both offset tables (monotone cover, UTF-8, char
    /// boundaries), every head (kind, prefix id) and the one
    /// representation each term has ([`ArenaError`] lists the ways an
    /// image can fail it), and builds both reverse indexes in one hash
    /// pass each; no `Term` is constructed.
    pub fn try_from_arena(image: ArenaImage<Vec<u8>>) -> Result<Self, ArenaError> {
        let (arena, prefixes) = (Arena::Owned(image.arena), Arena::Owned(image.prefixes));
        Self::build(image.heads, image.ends, arena, image.prefix_ends, prefixes)
    }

    /// Like [`Dictionary::try_from_arena`], but the two byte arenas stay
    /// windows into shared storage (an open memory map), so the string
    /// bytes are never copied onto the heap.
    ///
    /// Validation happens against the bytes as they are now; the
    /// provider is trusted not to mutate them afterwards. If it does
    /// anyway, lookups may miss and decodes may return `None`, but
    /// nothing panics.
    pub fn try_from_shared_arena(
        image: ArenaImage<Range<usize>>,
        bytes: SharedBytes,
    ) -> Result<Self, ArenaError> {
        let total = (*bytes).as_ref().len();
        let window = |range: Range<usize>| {
            if range.start > range.end || range.end > total {
                return Err(ArenaError::OutOfBounds);
            }
            Ok(Arena::Shared { bytes: Arc::clone(&bytes), range })
        };
        let (arena, prefixes) = (window(image.arena)?, window(image.prefixes)?);
        Self::build(image.heads, image.ends, arena, image.prefix_ends, prefixes)
    }

    fn build(
        heads: Vec<u32>,
        ends: Vec<u32>,
        arena: Arena,
        prefix_ends: Vec<u32>,
        prefix_arena: Arena,
    ) -> Result<Self, ArenaError> {
        if heads.len() != ends.len() {
            return Err(ArenaError::ColumnLengths { heads: heads.len(), ends: ends.len() });
        }
        let terms = Strings { ends, arena };
        let prefixes = Strings { ends: prefix_ends, arena: prefix_arena };
        terms.validate()?;
        prefixes.validate()?;
        if prefixes.len() == 0 || !prefixes.get(0).is_empty() {
            return Err(ArenaError::EmptyPrefixMissing);
        }
        let mut inner = Inner {
            heads,
            terms,
            index: TermIndex::default(),
            prefixes,
            prefix_index: TermIndex::default(),
        };
        // One hash pass per table over borrowed bytes. Distinctness falls
        // out of the build — a probe that finds an equal key is a corrupt
        // image, not a second id.
        inner.prefix_index = TermIndex::of_distinct(
            inner.prefixes.len(),
            |p| inner.prefix_hash(p),
            |a, b| inner.prefixes.get(a as usize) == inner.prefixes.get(b as usize),
        )
        .ok_or(ArenaError::DuplicatePrefix)?;
        for (i, &head) in inner.heads.iter().enumerate() {
            let (kind, prefix_id) = unpack(head);
            let kind = TermKind::from_byte(kind).ok_or(ArenaError::UnknownKind(kind))?;
            if prefix_id as usize >= inner.prefixes.len() {
                return Err(ArenaError::PrefixOutOfRange(prefix_id));
            }
            let prefix = inner.prefixes.get(prefix_id as usize);
            check_canonical(kind, prefix_id, prefix, inner.terms.get(i))?;
        }
        inner.index = TermIndex::of_distinct(
            inner.len(),
            |t| inner.term_hash(t),
            |a, b| {
                inner.heads[a as usize] == inner.heads[b as usize]
                    && inner.terms.get(a as usize) == inner.terms.get(b as usize)
            },
        )
        .ok_or(ArenaError::Duplicate)?;
        Ok(Dictionary { inner: Arc::new(inner) })
    }

    /// Exact heap footprint of the dictionary in bytes: the head column,
    /// the two offset tables, the two reverse indexes' slot arrays, and
    /// the two string arenas — each a single flat buffer, counted at
    /// capacity. String bytes appear exactly once (the reverse indexes
    /// store only ids, keyed by the same arena bytes); a shared (mapped)
    /// arena contributes nothing, since its bytes are file-backed rather
    /// than heap-allocated.
    pub fn heap_bytes(&self) -> usize {
        let inner = &*self.inner;
        std::mem::size_of::<Inner>()
            + inner.heads.capacity() * 4
            + inner.terms.heap_bytes()
            + inner.index.slots.capacity() * 4
            + inner.prefixes.heap_bytes()
            + inner.prefix_index.slots.capacity() * 4
    }

    /// Health of the term index: how full it is and how far linear
    /// probing has displaced entries from their home slots. Pure counts
    /// over the current table — the same terms interned in the same
    /// order always report the same numbers, on any host.
    pub fn index_stats(&self) -> IndexStats {
        let inner = &*self.inner;
        let (total, max_displacement) = inner.index.displacement(|id| inner.term_hash(id));
        let terms = self.len();
        IndexStats {
            slots: inner.index.slots.len(),
            terms,
            mean_displacement: if terms == 0 { 0.0 } else { total as f64 / terms as f64 },
            max_displacement,
        }
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
            .field("arena_bytes", &self.arena_bytes().len())
            .field("prefixes", &self.prefix_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(d.term_heads()[..3], want.map(|(kind, prefix)| head(kind, prefix)));
        assert!(!d.arena_bytes().windows(4).any(|w| w == b"http"), "namespace left the arena");
    }

    #[test]
    fn id_minting_stops_short_of_the_empty_slot() {
        assert_eq!(mint_id(0, TERM_IDS, "t"), 0);
        assert_eq!(mint_id(TERM_IDS - 1, TERM_IDS, "t"), EMPTY_SLOT - 1);
        assert_eq!(mint_id(PREFIX_IDS - 1, PREFIX_IDS, "p"), (PREFIX_IDS - 1) as u32);
        for (len, limit) in [(TERM_IDS + 1, TERM_IDS), (PREFIX_IDS, PREFIX_IDS)] {
            let refused = std::panic::catch_unwind(|| mint_id(len, limit, "ids"));
            assert!(refused.is_err(), "id {len} of {limit} minted");
        }
    }

    #[test]
    #[should_panic(expected = "dictionary overflow: more than 2^32 − 1 terms")]
    fn the_empty_slot_marker_is_never_a_term_id() {
        mint_id(EMPTY_SLOT as usize, TERM_IDS, "2^32 − 1 terms");
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
        let content = |d: &Dictionary| {
            std::mem::size_of::<Inner>()
                + 4 * d.term_heads().len()
                + 4 * d.term_ends().len()
                + d.arena_bytes().len()
                + 4 * d.index_stats().slots
                + 4 * d.prefix_ends().len()
                + d.prefix_bytes().len()
                + 4 * d.inner.prefix_index.slots.len()
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
        assert_eq!(d.len(), 2003);
        assert_eq!(d.heap_bytes(), content(&d), "a load gives its growth slack back");
        // One more term: the full buffers double, and a batch that small
        // does not trim them again.
        d.encode_triples_parallel(&batch(1000..1001), 1);
        let doubled = d.heap_bytes();
        assert!(doubled - content(&d) > content(&d) / 4, "doubled buffers keep their room");
        d.encode_triples_parallel(&batch(1001..1002), 1);
        assert_eq!(d.heap_bytes(), doubled, "no reallocation per call");
        // A batch that doubles the dictionary again is a load again.
        d.encode_triples_parallel(&batch(2000..3500), 1);
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
        assert_eq!(empty.prefix_ends, [0]);
        assert_eq!(Dictionary::try_from_arena(empty).unwrap().prefix_count(), 1);
    }

    #[test]
    fn try_from_arena_rejects_corrupt_images() {
        let d = every_kind();
        let image = d.image();
        let rejects = |edit: &dyn Fn(&mut ArenaImage<Vec<u8>>)| {
            let mut bad = image.clone();
            edit(&mut bad);
            Dictionary::try_from_arena(bad).unwrap_err()
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
        assert_eq!(
            rejects(&|i| {
                i.prefixes.pop();
            }),
            ArenaError::OffsetsNotMonotone
        );
        // Invalid UTF-8, and an offset inside a character.
        assert_eq!(rejects(&|i| i.arena[0] = 0xFF), ArenaError::NotUtf8);
        assert_eq!(rejects(&|i| i.prefixes[0] = 0xFF), ArenaError::NotUtf8);
        let e_acute = image.arena.windows(2).position(|w| w == "é".as_bytes()).unwrap() as u32;
        let splits = |i: &mut ArenaImage<Vec<u8>>| {
            let at = i.ends.iter().position(|&e| e > e_acute).unwrap();
            let (old, mid) = (i.ends[at], e_acute + 1);
            i.ends[at] = mid;
            i.ends.insert(at + 1, old);
            i.heads.insert(at + 1, head(TermKind::Literal, 0));
        };
        assert_eq!(rejects(&splits), ArenaError::SplitsChar);
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
                heads: vec![h],
                ends: vec![own.len() as u32],
                arena: own.as_bytes().to_vec(),
                prefix_ends: ends,
                prefixes: bytes.into_bytes(),
            }
        };
        let check = |what: &str, image: ArenaImage<Vec<u8>>, want: ArenaError| {
            assert_eq!(
                Dictionary::try_from_arena(image.clone()).err(),
                Some(want.clone()),
                "{what}"
            );
            // The shared constructor runs the same checks.
            let (arena_len, prefix_len) = (image.arena.len(), image.prefixes.len());
            let bytes: SharedBytes = Arc::new([image.arena, image.prefixes].concat());
            let windows = ArenaImage {
                heads: image.heads,
                ends: image.ends,
                arena: 0..arena_len,
                prefix_ends: image.prefix_ends,
                prefixes: arena_len..arena_len + prefix_len,
            };
            assert_eq!(
                Dictionary::try_from_shared_arena(windows, bytes).err(),
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
            ArenaImage { prefix_ends: vec![2], prefixes: b"en".to_vec(), ..image(3, "v", &[]) },
            ArenaError::EmptyPrefixMissing,
        );
        check(
            "no prefix table at all",
            ArenaImage { prefix_ends: vec![], ..image(3, "v", &[]) },
            ArenaError::EmptyPrefixMissing,
        );
        let twice = ArenaImage {
            heads: vec![head(iri, 1); 2],
            ends: vec![1, 2],
            arena: b"aa".to_vec(),
            ..image(head(iri, 1), "a", &["http://x/"])
        };
        check("duplicate terms", twice, ArenaError::Duplicate);
    }

    #[test]
    fn shared_arena_reads_without_copying_and_copies_on_write() {
        let mut d = every_kind();
        d.shrink_to_fit();
        let image = d.image();
        let (arena_len, prefix_len) = (image.arena.len(), image.prefixes.len());
        // Both arenas behind one provider, the prefixes first.
        let provider: SharedBytes =
            Arc::new([image.prefixes.clone(), image.arena.clone()].concat());
        let windows = |arena: Range<usize>| ArenaImage {
            heads: image.heads.clone(),
            ends: image.ends.clone(),
            arena,
            prefix_ends: image.prefix_ends.clone(),
            prefixes: 0..prefix_len,
        };
        let all = prefix_len..prefix_len + arena_len;
        let mut shared = Dictionary::try_from_shared_arena(windows(all), provider.clone()).unwrap();
        assert!(shared.arena_is_shared());
        assert_eq!(shared.decode(Id(0)), Some(iri("a")));
        assert_eq!(shared.id_of(&Term::lang_literal("héllo", "fr")), Some(Id(4)));
        // Mapped arenas' bytes are not heap bytes.
        assert_eq!(d.heap_bytes() - shared.heap_bytes(), arena_len + prefix_len);
        // Interning a new term converts the term arena to owned storage,
        // preserving ids; a new prefix converts the prefix arena.
        let new = shared.encode(&iri("new"));
        assert_eq!(new, Id(6));
        assert!(!shared.arena_is_shared());
        assert_eq!(shared.decode(Id(0)), Some(iri("a")));
        let elsewhere = shared.encode(&Term::iri("http://y/z"));
        assert_eq!(shared.decode(elsewhere), Some(Term::iri("http://y/z")));
        assert_eq!(shared.decode(Id(5)), Some(Term::typed_literal("7", XSD_INT)));
        // Out-of-range windows are rejected.
        let past = prefix_len + arena_len;
        assert_eq!(
            Dictionary::try_from_shared_arena(windows(past..past + 1), provider).unwrap_err(),
            ArenaError::OutOfBounds
        );
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
