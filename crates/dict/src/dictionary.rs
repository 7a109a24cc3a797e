//! The bidirectional term ⇄ id mapping table, backed by a string arena.
//!
//! Terms are interned into one contiguous UTF-8 arena per dictionary;
//! each term is a `(kind, offset, length)` view over that arena rather
//! than an owned `Term`. The in-memory buffers mirror the hexsnap `DICT`
//! section byte-for-byte (kind column, cumulative piece offsets, arena),
//! so saving is a straight copy of three buffers and loading is an
//! offset-table validation plus one hash pass — no per-term `Term`
//! construction and no per-term allocation.

use crate::id::{Id, IdTriple};
use rdf_model::{Term, TermKind, TermRef, Triple, TripleRef};
use std::ops::Range;
use std::sync::Arc;

/// [`TermKind::pieces`] of the kind that byte `kind` names — a
/// [`TermKind`] discriminant, exactly as the hexsnap `DICT` section stores
/// it, checked on every way into a dictionary.
#[inline]
fn pieces_of(kind: u8) -> usize {
    TermKind::from_byte(kind).map_or(1, TermKind::pieces)
}

/// Read-only byte storage an arena dictionary can borrow instead of own —
/// in practice a memory-mapped snapshot held open by `hex-disk`, so the
/// string arena stays on disk and pages in on demand.
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// The arena's backing bytes: owned by this dictionary, or a window into
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
}

/// An empty open-addressing slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// Open-addressing hash table from term bytes to term ids.
///
/// Slots hold term ids; keys live in the arena, so the table itself is
/// one flat `u32` array — no per-entry allocation, and lookups compare
/// borrowed bytes directly. Capacity is a power of two; load factor is
/// kept below 7/8. A term's home slot is the low bits of its
/// [`hash_parts`] hash, which is finalized so that those bits depend on
/// every byte of the term: linear probing then displaces an entry by
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

    /// A table sized for `n` entries holding ids `0..` with the given
    /// hashes, which must belong to distinct terms.
    fn rebuilt(n: usize, hashes: impl Iterator<Item = u64>) -> Self {
        let mut index = TermIndex::with_capacity(n);
        for (id, hash) in hashes.enumerate() {
            index.insert_absent(hash, id as u32);
        }
        index
    }

    /// Whether holding `n >= 1` entries would push the load factor past
    /// 7/8 (always true of the unallocated default table).
    fn must_grow_for(&self, n: usize) -> bool {
        self.slots.len() * 7 < n * 8
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        debug_assert!(self.slots.len().is_power_of_two());
        (hash as usize) & (self.slots.len() - 1)
    }

    /// Probes for a term with the given hash: `Ok(id)` when `eq` accepts
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

    /// Fills the empty slot a failed [`TermIndex::probe`] returned.
    fn fill(&mut self, slot: usize, id: u32) {
        debug_assert_eq!(self.slots[slot], EMPTY_SLOT);
        self.slots[slot] = id;
    }

    /// Inserts an id whose term is known to be absent.
    fn insert_absent(&mut self, hash: u64, id: u32) {
        let slot = self.probe(hash, |_| false).expect_err("no slot compares equal");
        self.fill(slot, id);
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

// ---------------------------------------------------------------------
// Hashing: an FxHash-style multiply-rotate over the term's kind byte and
// piece bytes, then a finalizer. Collisions are resolved by byte
// comparison, so the hash only affects probe-chain length, never ids,
// and it is never persisted.
// ---------------------------------------------------------------------

const HASH_SEED: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(HASH_SEED)
}

#[inline]
fn hash_piece(mut h: u64, bytes: &[u8]) -> u64 {
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
    mix(h, bytes.len() as u64)
}

/// Hashes a term's kind byte and piece bytes.
///
/// The low bits of a multiply-rotate chain depend only on the low bits
/// of each 8-byte chunk, so terms that differ elsewhere (a serial number
/// in the middle of an IRI) would share home slots and pile into long
/// probe chains. The finalizer folds the well-mixed high half into the
/// low half, which the index masks.
fn hash_parts(kind: u8, a: &[u8], b: Option<&[u8]>) -> u64 {
    let mut h = mix(HASH_SEED, u64::from(kind));
    h = hash_piece(h, a);
    if let Some(b) = b {
        h = hash_piece(h, b);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// A term's kind byte and piece bytes: what the index hashes and
/// compares and the arena stores.
#[inline]
fn raw_parts<'t>(term: &'t TermRef<'_>) -> (u8, &'t [u8], Option<&'t [u8]>) {
    let (a, b) = term.pieces();
    (term.kind() as u8, a.as_bytes(), b.map(str::as_bytes))
}

// ---------------------------------------------------------------------
// The shared interior. `Dictionary` wraps it in an `Arc` so clones are
// O(1) and copy-on-write: freezing or publishing a dataset shares the
// table, and only a later mutation of a shared clone re-owns it.
// ---------------------------------------------------------------------

#[derive(Clone, Default)]
struct Inner {
    /// One kind byte per term (`Id(i)` ↦ `kinds[i]`).
    kinds: Vec<u8>,
    /// Piece index of each term's first piece.
    first_piece: Vec<u32>,
    /// Cumulative end offsets of the string pieces in the arena.
    ends: Vec<u32>,
    /// The contiguous UTF-8 string arena all pieces point into.
    arena: Arena,
    /// Byte-keyed reverse index: term bytes → id.
    index: TermIndex,
}

impl Inner {
    /// Byte bounds of piece `p` in the arena.
    #[inline]
    fn piece_bounds(&self, p: usize) -> (usize, usize) {
        let start = if p == 0 { 0 } else { self.ends[p - 1] as usize };
        (start, self.ends[p] as usize)
    }

    /// Byte slices of term `i`'s pieces. Clamped: shared bytes that
    /// mutated or shrank after validation yield empty slices, never a
    /// panic.
    fn term_bytes(&self, i: usize) -> (&[u8], Option<&[u8]>) {
        let bytes = self.arena.bytes();
        let p = self.first_piece[i] as usize;
        let (a0, a1) = self.piece_bounds(p);
        let a = bytes.get(a0..a1).unwrap_or(&[]);
        let b = if pieces_of(self.kinds[i]) == 2 {
            let (b0, b1) = self.piece_bounds(p + 1);
            Some(bytes.get(b0..b1).unwrap_or(&[]))
        } else {
            None
        };
        (a, b)
    }

    /// Whether term `id` equals the `(kind, pieces)` decomposition.
    #[inline]
    fn term_matches(&self, id: u32, kind: u8, a: &[u8], b: Option<&[u8]>) -> bool {
        let i = id as usize;
        if self.kinds[i] != kind {
            return false;
        }
        let (ca, cb) = self.term_bytes(i);
        ca == a && cb == b
    }

    fn hash_of(&self, id: u32) -> u64 {
        let (a, b) = self.term_bytes(id as usize);
        hash_parts(self.kinds[id as usize], a, b)
    }

    /// Looks up a term by its decomposition without mutating anything.
    fn lookup(&self, hash: u64, kind: u8, a: &[u8], b: Option<&[u8]>) -> Option<u32> {
        if self.index.slots.is_empty() {
            return None;
        }
        self.index.probe(hash, |id| self.term_matches(id, kind, a, b)).ok()
    }

    /// Rebuilds the index when one more entry would push the load factor
    /// past 7/8. Hashes are recomputed from the arena — the table stores
    /// only ids, so growth costs no extra memory per entry.
    fn maybe_grow(&mut self, extra: usize) {
        let n = self.kinds.len() + extra;
        if self.index.must_grow_for(n) {
            self.index =
                TermIndex::rebuilt(n, (0..self.kinds.len() as u32).map(|id| self.hash_of(id)));
        }
    }

    /// Appends a term known to be absent, returning its new id.
    fn push_term(&mut self, kind: u8, a: &[u8], b: Option<&[u8]>, hash: u64) -> Id {
        let id =
            u32::try_from(self.kinds.len()).expect("dictionary overflow: more than 2^32 terms");
        self.maybe_grow(1);
        let piece0 =
            u32::try_from(self.ends.len()).expect("dictionary overflow: more than 2^32 pieces");
        let arena = self.arena.make_owned();
        arena.extend_from_slice(a);
        self.ends.push(u32::try_from(arena.len()).expect("dictionary string arena exceeds 4 GiB"));
        if let Some(b) = b {
            arena.extend_from_slice(b);
            self.ends
                .push(u32::try_from(arena.len()).expect("dictionary string arena exceeds 4 GiB"));
        }
        self.kinds.push(kind);
        self.first_piece.push(piece0);
        self.index.insert_absent(hash, id);
        Id(id)
    }

    /// Term `i` as a view over the arena. Returns `None` (never panics)
    /// for an id out of range, or if shared arena bytes have become
    /// undecodable since validation.
    #[inline]
    fn term(&self, i: usize) -> Option<TermRef<'_>> {
        let kind = TermKind::from_byte(*self.kinds.get(i)?)?;
        let (a, b) = self.term_bytes(i);
        let b = match b {
            Some(b) => Some(std::str::from_utf8(b).ok()?),
            None => None,
        };
        TermRef::from_pieces(kind, std::str::from_utf8(a).ok()?, b)
    }
}

/// Why an arena image was rejected by [`Dictionary::try_from_arena`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// A kind byte outside `0..=4`.
    UnknownKind(u8),
    /// The kind column requires a different piece count than given.
    PieceCount {
        /// Number of piece offsets supplied.
        declared: usize,
        /// Number the kind column requires.
        required: usize,
    },
    /// Piece offsets decrease, or fail to cover the arena exactly.
    OffsetsNotMonotone,
    /// The arena is not valid UTF-8.
    NotUtf8,
    /// A piece offset splits a multi-byte UTF-8 sequence.
    SplitsChar,
    /// Two ids decode to the same term.
    Duplicate,
    /// A typed literal carries the implicit `xsd:string` datatype, which
    /// canonically encodes as a plain literal (kind 2).
    NonCanonicalTyped,
    /// The shared byte range lies outside the provider's bytes.
    OutOfBounds,
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::UnknownKind(k) => write!(f, "unknown term kind {k}"),
            ArenaError::PieceCount { declared, required } => {
                write!(f, "dictionary declares {declared} string pieces, kinds require {required}")
            }
            ArenaError::OffsetsNotMonotone => {
                write!(f, "dictionary piece offsets are not a monotone cover of the arena")
            }
            ArenaError::NotUtf8 => write!(f, "dictionary string arena is not UTF-8"),
            ArenaError::SplitsChar => write!(f, "piece offset splits a UTF-8 sequence"),
            ArenaError::Duplicate => write!(f, "duplicate term in dictionary section"),
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
/// Terms are interned into one contiguous UTF-8 arena; encoding a term
/// that is already present allocates nothing (the lookup hashes and
/// compares borrowed bytes). The in-memory layout mirrors the hexsnap
/// `DICT` section, so snapshot save/load move whole buffers instead of
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
        Dictionary {
            inner: Arc::new(Inner {
                kinds: Vec::with_capacity(n),
                first_piece: Vec::with_capacity(n),
                ends: Vec::with_capacity(n + n / 8),
                arena: Arena::Owned(Vec::new()),
                index: TermIndex::with_capacity(n),
            }),
        }
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.inner.kinds.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.kinds.is_empty()
    }

    /// Interns a term — owned (`&Term`) or borrowed (`&TermRef`, or a
    /// `TermRef` by value) — returning its id. Idempotent: the same term
    /// always yields the same id. The hit path allocates nothing.
    pub fn encode<'a>(&mut self, term: impl Into<TermRef<'a>>) -> Id {
        self.encode_ref(&term.into())
    }

    fn encode_ref(&mut self, term: &TermRef<'_>) -> Id {
        let (kind, a, b) = raw_parts(term);
        let hash = hash_parts(kind, a, b);
        if let Some(id) = self.inner.lookup(hash, kind, a, b) {
            return Id(id);
        }
        Arc::make_mut(&mut self.inner).push_term(kind, a, b, hash)
    }

    /// Looks up the id of a term without interning it.
    pub fn id_of<'a>(&self, term: impl Into<TermRef<'a>>) -> Option<Id> {
        let term = term.into();
        let (kind, a, b) = raw_parts(&term);
        self.inner.lookup(hash_parts(kind, a, b), kind, a, b).map(Id)
    }

    /// The term of an id as a view straight over the string arena: no
    /// allocation, no copy.
    #[inline]
    pub fn term(&self, id: Id) -> Option<TermRef<'_>> {
        self.inner.term(id.index())
    }

    /// Decodes an id back to an owned term, materializing it from the
    /// arena.
    pub fn decode(&self, id: Id) -> Option<Term> {
        self.term(id).map(|t| t.to_owned())
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

    /// Shrinks the kind column, the two offset tables and the string arena
    /// to their content. They grow by doubling, so after a load up to half
    /// of each is reserved and never written; [`Dictionary::heap_bytes`]
    /// counts that room. (The reverse index is a power-of-two table sized
    /// for its load factor and has none to give back.)
    pub fn shrink_to_fit(&mut self) {
        let inner = Arc::make_mut(&mut self.inner);
        inner.kinds.shrink_to_fit();
        inner.first_piece.shrink_to_fit();
        inner.ends.shrink_to_fit();
        if let Arena::Owned(bytes) = &mut inner.arena {
            bytes.shrink_to_fit();
        }
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
    /// from the arena.
    pub fn iter(&self) -> impl Iterator<Item = (Id, Term)> + '_ {
        (0..self.len() as u32).filter_map(move |i| Some((Id(i), self.decode(Id(i))?)))
    }

    /// The interned terms in id order, materialized: `terms()[i]` is the
    /// term of `Id(i)`.
    pub fn terms(&self) -> Vec<Term> {
        self.iter().map(|(_, t)| t).collect()
    }

    /// The per-term kind column, exactly as the hexsnap `DICT` section
    /// stores it: 0 IRI, 1 blank, 2 plain literal, 3 language-tagged
    /// literal, 4 typed literal. Kinds 3–4 own two consecutive string
    /// pieces (lexical form, then tag/datatype); the rest own one.
    pub fn term_kinds(&self) -> &[u8] {
        &self.inner.kinds
    }

    /// Cumulative end offsets of the string pieces in the arena, in the
    /// `DICT` section's order.
    pub fn piece_ends(&self) -> &[u32] {
        &self.inner.ends
    }

    /// The contiguous UTF-8 string arena all pieces point into.
    pub fn arena_bytes(&self) -> &[u8] {
        self.inner.arena.bytes()
    }

    /// True when the arena is a window into shared (typically
    /// memory-mapped) storage rather than owned heap bytes.
    pub fn arena_is_shared(&self) -> bool {
        matches!(self.inner.arena, Arena::Shared { .. })
    }

    /// Rebuilds a dictionary from the three `DICT`-section buffers — the
    /// snapshot fast path. Validates the offset table (kinds, piece
    /// counts, monotone cover, UTF-8, char boundaries, distinctness) and
    /// builds the reverse index in one hash pass; no `Term` is
    /// constructed.
    pub fn try_from_arena(
        kinds: Vec<u8>,
        ends: Vec<u32>,
        arena: Vec<u8>,
    ) -> Result<Self, ArenaError> {
        Self::build_from_arena(kinds, ends, Arena::Owned(arena))
    }

    /// Like [`Dictionary::try_from_arena`], but the arena stays a window
    /// of `offset..offset + len` into shared storage (an open memory
    /// map), so the string bytes are never copied onto the heap.
    ///
    /// Validation happens against the bytes as they are now; the
    /// provider is trusted not to mutate them afterwards. If it does
    /// anyway, lookups may miss and decodes may return `None`, but
    /// nothing panics.
    pub fn try_from_shared_arena(
        kinds: Vec<u8>,
        ends: Vec<u32>,
        bytes: SharedBytes,
        offset: usize,
        len: usize,
    ) -> Result<Self, ArenaError> {
        let total = (*bytes).as_ref().len();
        if offset.checked_add(len).is_none_or(|end| end > total) {
            return Err(ArenaError::OutOfBounds);
        }
        Self::build_from_arena(kinds, ends, Arena::Shared { bytes, range: offset..offset + len })
    }

    fn build_from_arena(kinds: Vec<u8>, ends: Vec<u32>, arena: Arena) -> Result<Self, ArenaError> {
        let mut required = 0usize;
        for &k in &kinds {
            if TermKind::from_byte(k).is_none() {
                return Err(ArenaError::UnknownKind(k));
            }
            required += pieces_of(k);
        }
        if required != ends.len() {
            return Err(ArenaError::PieceCount { declared: ends.len(), required });
        }
        let n_bytes = arena.bytes().len();
        let mut prev = 0u32;
        for &e in &ends {
            if e < prev {
                return Err(ArenaError::OffsetsNotMonotone);
            }
            prev = e;
        }
        if prev as usize != n_bytes {
            return Err(ArenaError::OffsetsNotMonotone);
        }
        let text = std::str::from_utf8(arena.bytes()).map_err(|_| ArenaError::NotUtf8)?;
        if ends.iter().any(|&e| !text.is_char_boundary(e as usize)) {
            return Err(ArenaError::SplitsChar);
        }
        let mut first_piece = Vec::with_capacity(kinds.len());
        let mut p = 0u32;
        for &k in &kinds {
            first_piece.push(p);
            p += pieces_of(k) as u32;
        }
        let mut inner = Inner { kinds, first_piece, ends, arena, index: TermIndex::default() };
        // The single hash pass: build the reverse index over borrowed
        // bytes. Distinctness falls out of the build — a probe that finds
        // an equal term is a corrupt image, not a second id.
        let mut index = TermIndex::with_capacity(inner.kinds.len());
        for id in 0..inner.kinds.len() as u32 {
            let i = id as usize;
            let kind = inner.kinds[i];
            let (a, b) = inner.term_bytes(i);
            if kind == TermKind::TypedLiteral as u8 && b == Some(rdf_model::XSD_STRING.as_bytes()) {
                return Err(ArenaError::NonCanonicalTyped);
            }
            match index.probe(hash_parts(kind, a, b), |c| inner.term_matches(c, kind, a, b)) {
                Ok(_) => return Err(ArenaError::Duplicate),
                Err(slot) => index.fill(slot, id),
            }
        }
        inner.index = index;
        Ok(Dictionary { inner: Arc::new(inner) })
    }

    /// Exact heap footprint of the dictionary in bytes: the kind column,
    /// the two offset tables, the reverse index's slot array, and the
    /// string arena — each a single flat buffer, counted at capacity.
    /// String bytes appear exactly once (the reverse index stores only
    /// ids, keyed by the same arena bytes); a shared (mapped) arena
    /// contributes nothing, since its bytes are file-backed rather than
    /// heap-allocated.
    pub fn heap_bytes(&self) -> usize {
        let inner = &*self.inner;
        let arena = match &inner.arena {
            Arena::Owned(v) => v.capacity(),
            Arena::Shared { .. } => 0,
        };
        std::mem::size_of::<Inner>()
            + inner.kinds.capacity()
            + inner.first_piece.capacity() * 4
            + inner.ends.capacity() * 4
            + inner.index.slots.capacity() * 4
            + arena
    }

    /// Health of the reverse index: how full it is and how far linear
    /// probing has displaced entries from their home slots. Pure counts
    /// over the current table — the same terms interned in the same
    /// order always report the same numbers, on any host.
    pub fn index_stats(&self) -> IndexStats {
        let inner = &*self.inner;
        let (total, max_displacement) = inner.index.displacement(|id| inner.hash_of(id));
        let terms = self.len();
        IndexStats {
            slots: inner.index.slots.len(),
            terms,
            mean_displacement: if terms == 0 { 0.0 } else { total as f64 / terms as f64 },
            max_displacement,
        }
    }
}

/// What [`Dictionary::index_stats`] reports about the reverse index.
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
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

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
            Term::literal("lit"),
            Term::blank("b0"),
            Term::lang_literal("x", "en"),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
        ];
        let ids: Vec<Id> = terms.iter().map(|t| d.encode(t)).collect();
        for (id, term) in ids.iter().zip(&terms) {
            assert_eq!(d.decode(*id).as_ref(), Some(term));
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
        let arena = d.arena_bytes().as_ptr_range();
        assert!(arena.contains(&lexical.as_ptr()) && arena.contains(&tag.unwrap().as_ptr()));
        assert_eq!(d.decode(id), Some(owned));
        assert_eq!(d.term(Id(1)), None);
    }

    #[test]
    fn distinct_literal_forms_get_distinct_ids() {
        let mut d = Dictionary::new();
        // Same lexical form, different term kinds/tags must not collide.
        let plain = d.encode(&Term::literal("MIT"));
        let lang = d.encode(&Term::lang_literal("MIT", "en"));
        let iri = d.encode(&Term::iri("MIT"));
        assert_ne!(plain, lang);
        assert_ne!(plain, iri);
        assert_ne!(lang, iri);
    }

    #[test]
    fn adjacent_pieces_do_not_alias() {
        // "ab" + lang "c" must differ from "a" + lang "bc" even though the
        // two lay out the same arena bytes.
        let mut d = Dictionary::new();
        let x = d.encode(&Term::lang_literal("ab", "c"));
        let y = d.encode(&Term::lang_literal("a", "bc"));
        assert_ne!(x, y);
        assert_eq!(d.decode(x), Some(Term::lang_literal("ab", "c")));
        assert_eq!(d.decode(y), Some(Term::lang_literal("a", "bc")));
    }

    #[test]
    fn id_of_does_not_intern() {
        let mut d = Dictionary::new();
        assert_eq!(d.id_of(&iri("a")), None);
        assert_eq!(d.len(), 0);
        d.encode(&iri("a"));
        assert_eq!(d.id_of(&iri("a")), Some(Id(0)));
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
                + d.term_kinds().len()
                + 4 * d.len()
                + 4 * d.piece_ends().len()
                + 4 * d.index_stats().slots
                + d.arena_bytes().len()
        };
        let batch = |range: std::ops::Range<u32>| -> Vec<Triple> {
            range
                .map(|i| {
                    Triple::new(
                        iri(&format!("s{i}")),
                        iri("p"),
                        Term::lang_literal(format!("o{i}"), "en"),
                    )
                })
                .collect()
        };
        let mut d = Dictionary::new();
        d.encode_triples_parallel(&batch(0..1000), 1);
        assert_eq!(d.len(), 2001);
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

    #[test]
    fn arena_buffers_roundtrip_through_try_from_arena() {
        let mut d = Dictionary::new();
        let terms = [
            iri("a"),
            Term::literal("plain"),
            Term::blank("b0"),
            Term::lang_literal("héllo", "fr"),
            Term::typed_literal("7", "http://www.w3.org/2001/XMLSchema#int"),
        ];
        for t in &terms {
            d.encode(t);
        }
        let rebuilt = Dictionary::try_from_arena(
            d.term_kinds().to_vec(),
            d.piece_ends().to_vec(),
            d.arena_bytes().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), d.len());
        for (id, term) in d.iter() {
            assert_eq!(rebuilt.decode(id), Some(term.clone()));
            assert_eq!(rebuilt.id_of(&term), Some(id));
        }
        assert_eq!(rebuilt.arena_bytes(), d.arena_bytes());
    }

    #[test]
    fn try_from_arena_rejects_corrupt_images() {
        let mut d = Dictionary::new();
        d.encode(&iri("a"));
        d.encode(&Term::lang_literal("x", "en"));
        let (kinds, ends, arena) =
            (d.term_kinds().to_vec(), d.piece_ends().to_vec(), d.arena_bytes().to_vec());

        // Baseline sanity.
        assert!(Dictionary::try_from_arena(kinds.clone(), ends.clone(), arena.clone()).is_ok());
        // Unknown kind byte.
        let mut bad = kinds.clone();
        bad[0] = 9;
        assert_eq!(
            Dictionary::try_from_arena(bad, ends.clone(), arena.clone()).unwrap_err(),
            ArenaError::UnknownKind(9)
        );
        // Piece count mismatch.
        assert!(matches!(
            Dictionary::try_from_arena(kinds.clone(), ends[..1].to_vec(), arena.clone()),
            Err(ArenaError::PieceCount { .. })
        ));
        // Non-monotone offsets.
        let mut bad = ends.clone();
        bad.swap(0, 1);
        assert!(matches!(
            Dictionary::try_from_arena(kinds.clone(), bad, arena.clone()),
            Err(ArenaError::OffsetsNotMonotone) | Err(ArenaError::Duplicate)
        ));
        // Offsets not covering the arena.
        let mut bad = ends.clone();
        *bad.last_mut().unwrap() -= 1;
        assert_eq!(
            Dictionary::try_from_arena(kinds.clone(), bad, arena.clone()).unwrap_err(),
            ArenaError::OffsetsNotMonotone
        );
        // Invalid UTF-8.
        let mut bad = arena.clone();
        bad[0] = 0xFF;
        assert_eq!(
            Dictionary::try_from_arena(kinds.clone(), ends.clone(), bad).unwrap_err(),
            ArenaError::NotUtf8
        );
        // Duplicate terms.
        let mut d2 = Dictionary::new();
        d2.encode(&iri("a"));
        let (k2, e2, a2) =
            (d2.term_kinds().to_vec(), d2.piece_ends().to_vec(), d2.arena_bytes().to_vec());
        let kinds_dup = [k2.clone(), k2].concat();
        let ends_dup = vec![e2[0], e2[0] * 2];
        let arena_dup = [a2.clone(), a2].concat();
        assert_eq!(
            Dictionary::try_from_arena(kinds_dup, ends_dup, arena_dup).unwrap_err(),
            ArenaError::Duplicate
        );
        // Typed literal smuggling xsd:string.
        let mut d3 = Dictionary::new();
        d3.encode(&Term::typed_literal("v", "http://www.w3.org/2001/XMLSchema#int"));
        let lex_end = d3.piece_ends()[0];
        let arena3 =
            [&d3.arena_bytes()[..lex_end as usize], rdf_model::XSD_STRING.as_bytes()].concat();
        let ends3 = vec![lex_end, arena3.len() as u32];
        assert_eq!(
            Dictionary::try_from_arena(d3.term_kinds().to_vec(), ends3, arena3).unwrap_err(),
            ArenaError::NonCanonicalTyped
        );
    }

    #[test]
    fn shared_arena_reads_without_copying_and_copies_on_write() {
        let mut d = Dictionary::new();
        d.encode(&iri("a"));
        d.encode(&Term::lang_literal("x", "en"));
        let provider: SharedBytes = Arc::new(d.arena_bytes().to_vec());
        let len = d.arena_bytes().len();
        let mut shared = Dictionary::try_from_shared_arena(
            d.term_kinds().to_vec(),
            d.piece_ends().to_vec(),
            provider.clone(),
            0,
            len,
        )
        .unwrap();
        assert!(shared.arena_is_shared());
        assert_eq!(shared.decode(Id(0)), Some(iri("a")));
        assert_eq!(shared.id_of(&Term::lang_literal("x", "en")), Some(Id(1)));
        // A mapped arena's bytes are not heap bytes.
        assert!(shared.heap_bytes() < d.heap_bytes());
        // Interning a new term converts to owned storage, preserving ids.
        let new = shared.encode(&iri("new"));
        assert_eq!(new, Id(2));
        assert!(!shared.arena_is_shared());
        assert_eq!(shared.decode(Id(0)), Some(iri("a")));
        // Out-of-range windows are rejected.
        assert_eq!(
            Dictionary::try_from_shared_arena(vec![], vec![], provider, len, 1).unwrap_err(),
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
