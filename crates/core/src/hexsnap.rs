//! `hexsnap`: the versioned little-endian binary snapshot format.
//!
//! This module is the disk-based Hexastore the paper's §7 names as
//! future work, reduced to its essence: a columnar file whose sections
//! are the same flat slabs the [`FrozenHexastore`] queries, so *opening*
//! a snapshot with prebuilt slab sections is a sequence of contiguous
//! array reads — no parsing, no sorting, no index rebuild. It is the only
//! persistence format of the workspace.
//!
//! # Layout
//!
//! All integers are little-endian.
//!
//! ```text
//! offset   size  field
//! 0        8     magic "hexsnap\0"
//! 8        4     format version (u32, currently 14)
//! 12       …     section payloads, back to back
//! …        var   section table: u32 count, then per section
//!                [u8; 4] tag · u64 offset · u64 length
//! end-16   8     u64 offset of the section table
//! end-8    8     magic "hexsnap\0" again (trailer)
//! ```
//!
//! The trailer lets the writer stream sections without back-patching and
//! lets the reader detect truncation immediately. Unknown section tags
//! are skipped (forward compatibility); a file holds at most
//! [`MAX_SECTIONS`] sections.
//!
//! # Version history
//!
//! - **v1** — `DICT`, `TRPL` and `FROZ` sections, no alignment
//!   guarantee. `FROZ` stores every window as an `(offset, length)` pair
//!   and a list-reference column for all six orderings.
//! - **v2** — adds the compressed `FRZC` section
//!   ([`Compression::VarintDelta`]) and guarantees the `FROZ` section
//!   starts on a 4-byte file offset (zero padding *between* sections,
//!   invisible to the table-driven reader). Slab columns as in v1.
//! - **v3** — stores only what cannot be derived. Windows tile their
//!   column, so `FROZ` keeps one cumulative offsets column per level
//!   instead of `(offset, length)` pairs; leaf *i* of a primary ordering
//!   (spo, sop, pos) is list *i*, so only the mirror orderings (pso, osp,
//!   ops) keep list references, in `FROZ` and `FRZC` alike; and
//!   [`save_frozen`] no longer writes a `TRPL` column beside the slabs,
//!   whose spo ordering already encodes it.
//! - **v4** — a `FROZ` arena is the [`FlatArena`]'s own two columns:
//!   one slot per list, which is the list when it holds a single id, and
//!   an overflow column for the longer ones ([`crate::slab`] has the
//!   encoding), in place of v3's offsets column and item column. `FRZC`
//!   encodes lists, not columns, so its bytes are v3's.
//! - **v5** — a `DICT` section is the prefix-shared dictionary:
//!   every term a `u32` head (kind and prefix id) and its own bytes, the
//!   prefixes (IRI namespaces, language tags, datatype IRIs) stored once
//!   each in a table of their own, in place of one kind byte and one or
//!   two whole string pieces per term. `FROZ` and `FRZC` are v4's.
//! - **v6** — a `FROZ` ordering's offsets, vector keys and (mirror
//!   orderings) list references are bit-packed columns, each at the width
//!   its largest value needs ([`crate::packed`]), and the section starts
//!   on an 8-byte file offset. Header keys and arenas stay `u32`; `DICT`
//!   and `FRZC` are v5's byte for byte.
//! - **v7** — a `FROZ` arena's slot column is packed too, in the same
//!   framing, one flag bit above the largest singleton id or overflow
//!   position wide ([`crate::slab`] has the encoding); before, a slot is
//!   a `u32` with the flag in bit 31. Overflow columns and header keys
//!   stay `u32`; `DICT` and `FRZC` are v6's byte for byte.
//! - **v8** — a `FROZ` arena's overflow column is packed too, in the
//!   same framing, as wide as its largest word (a run's length or id)
//!   needs; `n_overflow` keeps its place. Only header keys stay `u32`;
//!   `DICT` and `FRZC` are v7's byte for byte.
//! - **v9** — a `FROZ` ordering's header keys are a presence
//!   bitmap with a rank directory, or one Elias–Fano window where that is
//!   smaller, and its vector keys are packed or Elias–Fano coded window by
//!   window, whichever is smaller ([`crate::succinct`] has both
//!   encodings); an encoding-flags word after the header count says
//!   which. Arenas, offsets and list references, `DICT` and `FRZC` are
//!   v8's byte for byte.
//! - **v10** — a `DICT` section's term heads, term ends and
//!   prefix ends are packed columns in `FROZ`'s framing, each at the
//!   width its largest value needs, and the section starts on an 8-byte
//!   file offset. The string arenas are v9's; `FROZ` and `FRZC` are v9's
//!   byte for byte.
//!
//! - **v11** — a `DICT` section begins with the frozen tier a
//!   bulk load leaves ([`hex_dict::FrontImage`]): the terms' keys in
//!   ascending order, front coded in blocks, and the two permutations
//!   between key order and the first-seen ids. The delta tier follows in
//!   v10's layout, byte for byte, and `FROZ` and `FRZC` are v10's. A
//!   graph interned term by term has an empty frozen tier.
//! - **v12** — a `FROZ` arena is a slot column, a run-ends
//!   column and a key column ([`crate::slab`] has the encoding): a
//!   flagged slot holds its list's run index, the run ends cut the key
//!   column into runs as an ordering's offsets cut its vector keys, and
//!   the key column is packed or Elias–Fano coded run by run, whichever is
//!   smaller, in place of the overflow column's length words and ids. A
//!   column whose width the count fields give — the run ends, every bit
//!   stream's rank directory — stores no width field. `DICT` and `FRZC`
//!   are v11's byte for byte.
//! - **v13** — a `FROZ` mirror ordering's list references are
//!   windowed by its offsets as its vector keys are — within each window
//!   they strictly ascend, as the primary lays its leaves out by the
//!   mirror's vector key first — and stored as vector keys are: packed,
//!   or Elias–Fano coded window by window, whichever is smaller, an
//!   encoding flag (bit 2) saying which. Packed, they are v12's column
//!   byte for byte. `DICT`, the arenas and `FRZC` are v12's byte for byte.
//! - **v14** (current) — every cumulative offsets column of `FROZ` — an
//!   ordering's offsets, an arena's run ends, and the bit offsets of each
//!   Elias–Fano column (vector keys, list references, run ids, a header
//!   window) — is packed or one Elias–Fano window of its values
//!   ([`crate::succinct::EfOffsets`]: `u32 n_bits`, the stream, and a
//!   select directory of every 64th value's one, whose length and width
//!   the counts give), whichever is smaller, a flag per column saying
//!   which: ordering flags bit 3 (its offsets), bit 4 (its
//!   vector keys' bit offsets), bit 5 (a mirror's references' bit
//!   offsets), bit 6 (its header window's bit offsets); arena flags bit 3
//!   (its run ends) and bit 4 (its run ids' bit offsets). A bit-offset
//!   flag is set only beside the flag of the coded column it cuts. Where
//!   every offsets column stays packed a v14 section is v13's byte for
//!   byte; `DICT` and `FRZC` are v13's.
//!
//! [`Writer`] writes v14; [`Reader`] opens all fourteen. Where every column of
//! a `DICT` or `FROZ` section lies is said once per section, by a walker
//! that reads only the count fields: [`Reader::dict_columns`] and
//! [`Reader::frozen_columns`], the only code that knows how the column
//! widths changed between versions. One constructor per section turns
//! what they locate into the structure, whatever the version —
//! [`frozen_from_columns`] a `FROZ` section into a [`FrozenHexastore`],
//! [`dictionary_from_columns`] a `DICT` section into a [`Dictionary`] —
//! taking each column's bytes from a source: the eager reader reads them
//! into owned buffers, `hex-disk` passes windows of its mapping. The two
//! loaders differ in nothing else. An older column becomes the current
//! one inside the constructor: pre-v3 pairs become offsets (spans that do
//! not tile and primary references that are not the identity are
//! rejected as corrupt), a pre-v4 arena's offset-addressed lists are
//! appended one by one to a slot arena, a pre-v5 dictionary's terms are
//! interned again in id order, which keeps their ids, a pre-v6 index
//! level's `u32` columns are packed, and so are a pre-v7 arena's `u32`
//! slot column and a pre-v8 arena's `u32` overflow column, a pre-v9
//! ordering's header and vector keys, checked ascending, take the
//! encodings their sizes choose, a pre-v10 dictionary's `u32` columns
//! are packed, a v4–v11 arena's overflow runs, checked as that layout
//! was, become the runs of a key column, and a v3–v12 mirror's list
//! references, checked canonical and strictly ascending within each
//! window, become a key column windowed by its offsets. A v3 to v13
//! section's packed offsets columns, checked canonical, take the encoding
//! their sizes choose, and a v12 or v13 section's packed key column whose
//! sizes now choose Elias–Fano (its writer sized Elias–Fano with packed
//! bit offsets) is rebuilt coded, its windows checked to tile and ascend
//! first. Every eager load
//! of slabs — `FROZ` of any version, or the decoded `FRZC` payload — then
//! ends in the same check of the built store. Only a v10 to v14 file has
//! the index columns `hex-disk` maps (a v10 one with an empty frozen
//! tier; a v10 or v11 one's arenas, a v10 to v12 one's list references
//! and a v10 to v13 one's offsets columns are rebuilt, owned, on the
//! way; [`mapping_refusal`] says why an older one is refused); older
//! files go through [`load_frozen`] and a re-save.
//!
//! Defined sections:
//!
//! - **`DICT`** — the dictionary's two tiers, starting on an 8-byte file
//!   offset (v10). From v11 the frozen tier comes first: `u32 block` (the
//!   keys per block, at least 1; the writer uses [`hex_dict::BLOCK`]),
//!   `u32 n_frozen`, the packed column of the `⌈n_frozen / block⌉ + 1`
//!   cumulative byte offsets of the blocks, `u64 n_block_bytes`, the
//!   blocks. A block's first key is a varint length and the key; each
//!   later key a varint shared-prefix length, a varint suffix length and
//!   the suffix (varints are LEB128). A key ([`hex_dict::term_key`]) is the
//!   kind byte, for a tagged or typed literal a varint length and the tag
//!   or datatype IRI, then the text; keys ascend strictly. Then two
//!   packed columns of `n_frozen` values each: the frozen id of each key,
//!   in key order, and the position of each frozen id's key, which
//!   inverts it. Then the delta tier, every section before
//!   v11: two string arenas plus offsets (not per-term values): `u32
//!   n_terms`, one head per term (its kind — 0 iri, 1 blank, 2 plain
//!   literal, 3 language literal, 4 typed literal — in the low three
//!   bits, its prefix id above), the cumulative end of each term's own
//!   bytes, `u64 n_bytes`, the own bytes; then `u32 n_prefixes`, the
//!   cumulative end of each prefix, `u64 n_prefix_bytes`, the prefix
//!   bytes. The heads and both end columns are packed columns in the
//!   framing `FROZ` uses (below) from v10, `u32`s in v5 to v9. Prefix 0
//!   is the empty string. An
//!   IRI's prefix is its text up to and including the last `/` or `#`, a
//!   tagged or typed literal's its tag or datatype IRI (its own bytes
//!   the lexical form); a blank node or plain literal has prefix 0.
//!   Before v5: `u32 n_terms`, one kind byte per term, `u32 n_pieces`,
//!   cumulative `u32` end offsets per string piece, `u64 n_bytes`, then
//!   the arena bytes; kinds 0–2 consume one piece, kinds 3–4 two
//!   (lexical + tag/datatype).
//! - **`TRPL`** — the triple column of a slab-less snapshot ([`save`]):
//!   `u64 n_triples`, then chunks of `u32 chunk_len` followed by
//!   `chunk_len` subject, predicate and object ids (three contiguous
//!   `u32` runs), terminated by a zero chunk. A file with slabs and no
//!   `TRPL` yields the same triples, in the same spo order, from its spo
//!   ordering ([`Reader::triples`], [`Reader::for_each_triple_chunk`]).
//! - **`FROZ`** — prebuilt slabs as raw columns, starting on an 8-byte
//!   file offset, every field a 4-byte multiple. From v9 every column is
//!   packed or a bit stream, read with unaligned loads, so `hex-disk`
//!   views each one in place as bytes and casts none.
//!   `u64 n_triples`; then per arena (object, property, subject lists),
//!   from v12: `u32 n_lists`, `u32 n_runs`, `u32 n_keys` (the run ids;
//!   `n_lists − n_runs + n_keys` is the triple count), `u32 flags` (bit 1:
//!   the run ids are Elias–Fano coded; from v14 bit 3: the run ends are
//!   an offsets window, bit 4: the run ids' bit offsets are; no other bit
//!   is set), the packed
//!   slot column of `n_lists` slots, the `n_runs + 1` cumulative run ends
//!   packed at the bit length of `n_keys` with no width field (or an
//!   offsets window, below), then the
//!   run ids: a packed column of `n_keys` values, or an Elias–Fano column
//!   of `n_runs` windows (below). From v4 to v11 an arena is `u32 n_lists`,
//!   `u64 n_items`, `u32 n_overflow`, the packed slot column of `n_lists`
//!   slots (before v7, `n_lists` `u32` slots), then the packed overflow
//!   column of `n_overflow` words (before v8, `n_overflow` `u32` words),
//!   each longer list a length word and its ids; before v4 an arena is
//!   `u32 n_lists`, `u64 n_items`, `n_lists + 1` cumulative offsets and
//!   `n_items` items. Then
//!   per ordering (spo, sop, pso, pos, osp, ops):
//!   `u32 n_headers`, `n_headers` `u32` header keys, `n_headers + 1`
//!   cumulative offsets into the vector column, `u32 n_vector`,
//!   `n_vector` vector keys and — mirror orderings only — `n_vector` list
//!   references. From v9 the header keys are `u32 flags` (bit 0: the
//!   header keys are Elias–Fano coded, bit 1: the vector keys are, from
//!   v13 bit 2 on a mirror: its list references are; no other bit is
//!   set) and then either `u32 n_bits`, the bitmap as a
//!   packed column of `n_bits` values of width 1 (the largest key's bit
//!   the last) and its rank directory, a packed column of one sample per
//!   512-bit block after the first; or an Elias–Fano column of one window;
//!   and Elias–Fano vector keys take the place of the packed ones, an
//!   Elias–Fano column of `n_headers` windows: a packed base column (each
//!   window's first key), a packed column of `n_windows + 1` bit offsets,
//!   `u32 n_bits`, the stream (packed, width 1) and its rank directory.
//!   From v13 a mirror's list references are coded the same way, packed
//!   or an Elias–Fano column of `n_headers` windows, each window the
//!   references of one header's leaves; before, they are one packed
//!   column that no window cuts.
//!   From v12 a rank directory stores no width field: its width is the
//!   bit length of its stream's length (0 with no sample), and its words
//!   follow the stream's.
//!   From v14 each cumulative offsets column — an ordering's offsets, an
//!   arena's run ends, an Elias–Fano column's bit offsets — whose flag is
//!   set is an **offsets window** in place of the packed column: `u32
//!   n_bits`, the stream (packed, width 1) and its select directory. The
//!   stream is a 5-bit `l = ⌊log2(last / n)⌋` for its `n` values, the last
//!   `last`; then the high region, a one per value `v` at bit `(v >> l) +
//!   i` of it, ending on the last value's one; then each value's low `l`
//!   bits. The select directory is a packed column of `⌊(n − 1) / 64⌋`
//!   samples, sample `j` the stream position of value `64·(j + 1)`'s one,
//!   at the bit length of `n_bits` (0 with no sample) and with no width
//!   field; its words follow the stream's. Its value count is the packed
//!   column's; a window shorter than its `l` and a one per value is
//!   refused by the walk.
//!   From v6 the offsets, vector keys and list references —
//!   from v7 the list slots and from v8 the overflow words — are each a
//!   packed column: a `u32` width `w` (at most 32), zero bytes up to the
//!   next 8-byte file offset (any
//!   other byte there is corrupt), then `8·(⌈n·w / 64⌉ + 1)` bytes (none
//!   when `w` is 0) holding value `i` at bits `i·w .. i·w + w`, the last
//!   word zero ([`crate::packed`]); before v6 they are `u32`s. When
//!   present, [`load_frozen`] is query-ready on read.
//! - **`FRZC`** (v2+) — the same slabs varint-delta compressed
//!   ([`crate::compress`]): `u64 n_triples`, `u64 payload_len`,
//!   `u32` FNV-1a checksum of the payload, then the payload — per arena
//!   a varint list/item count pair followed by per-list lengths and
//!   delta-encoded runs; per
//!   ordering varint header/vector counts, per-header group lengths,
//!   delta-encoded keys, delta-encoded per-group `k2` runs and — mirror
//!   orderings only — plain varint list references. A file carries
//!   `FROZ` or `FRZC`, not both.
//!
//! `u32` offsets bound a single string arena and a single slab column at
//! 2^32 entries, an arena's runs at 2^31 — far above the
//! paper's 61M-triple ceiling and identical to the [`hex_dict::Id`] width
//! everywhere else; a packed value is at most 32 bits wide for the same
//! reason.

use crate::advisor::IndexKind;
use crate::frozen::{windowed, FrozenHexastore, FrozenIndex};
use crate::graph::GraphStore;
use crate::packed::{bytes_for, width_of, Bytes, PackedColumn, PackedView, MAX_WIDTH};
use crate::pattern::IdPattern;
use crate::slab::{pack_u32_slots, FlatArena, MAX_IN_SLOT};
use crate::succinct::{
    check_stream_shape, sample_width, samples, select_samples, select_width, windows_of, EfColumn,
    EfOffsets, EfView, HeaderColumn, HeadersView, KeyCheck, KeyColumn, KeySize, KeysView,
    OffsetsCheck, OffsetsColumn, OffsetsView, RankBitmap, L_BITS,
};
use crate::traits::TripleStore;
use hex_dict::{ArenaImage, Dictionary, FrontImage, Id, IdTriple};
use rdf_model::{TermKind, TermRef};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// The eight file-identifying bytes, also used as the trailer.
pub const MAGIC: [u8; 8] = *b"hexsnap\0";

/// The current format version. [`Reader`] accepts `1..=VERSION`.
pub const VERSION: u32 = 14;

/// The oldest format version `hex-disk` maps: v10 and v11 differ only in
/// the frozen dictionary tier v11 adds, which a v10 file lacks, v12 only
/// in its arenas, which a v10 or v11 file's are rebuilt into, and v13
/// only in its list references, which a v10 to v12 file's are rebuilt
/// into.
const MAPPABLE: u32 = 10;

/// Why `hex-disk` refuses to map a file of format `version`, naming the
/// columns that version lays out otherwise than the mapped read path
/// views them and the upgrade path; `None` for v10 to [`VERSION`]. Every
/// version before v10 differs in some column ([the version
/// history](self#version-history)), so a mapping refuses it before walking
/// any section.
pub fn mapping_refusal(version: u32) -> Option<String> {
    if version >= MAPPABLE {
        return None;
    }
    let what = match version {
        ..=3 => "slab columns",
        4 => {
            "dictionary layout, unpacked index levels, unpacked list slots and unpacked \
             overflow runs"
        }
        5 => {
            "unpacked index levels, unpacked list slots, unpacked overflow runs and u32 \
             header keys"
        }
        6 => "unpacked list slots, unpacked overflow runs and u32 header keys",
        7 => "unpacked overflow runs and u32 header keys",
        8 => "u32 header keys without a rank directory",
        _ => "u32 dictionary columns",
    };
    Some(format!(
        "a version-{version} file's {what} predates the mappable layout; open it via \
         hexsnap::load_frozen and re-save with hexsnap::save_frozen (format version {VERSION})"
    ))
}

/// Triples per chunk in the `TRPL` section (~768 KiB of ids).
const TRIPLE_CHUNK: usize = 64 * 1024;

/// The arena each ordering's lists live in, in the canonical ordering
/// walk (spo, sop, pso, pos, osp, ops): spo/pso share arena 0, sop/osp
/// arena 1, pos/ops arena 2.
const ARENA_OF: [usize; 6] = [0, 1, 0, 2, 1, 2];

/// True for the format versions whose slab sections spell out what v3
/// derives: every window as an `(offset, length)` pair, and list
/// references for the primary orderings too.
fn spells_out_derivables(version: u32) -> bool {
    version < 3
}

/// Maximum sections per file, enforced symmetrically by [`Writer`] (at
/// write time) and [`Reader`] (as a corruption bound on the table).
pub const MAX_SECTIONS: usize = 64;

const TAG_DICT: [u8; 4] = *b"DICT";
const TAG_TRPL: [u8; 4] = *b"TRPL";
const TAG_FROZ: [u8; 4] = *b"FROZ";
const TAG_FRZC: [u8; 4] = *b"FRZC";

/// A v9 ordering's encoding flag: its header keys are one Elias–Fano
/// window, not a bitmap.
const HEADERS_CODED: u32 = 1;
/// A v9 ordering's encoding flag: its vector keys are Elias–Fano windows,
/// not packed.
const KEYS_CODED: u32 = 2;
/// A v13 mirror ordering's encoding flag: its list references are
/// Elias–Fano windows, not packed.
const REFS_CODED: u32 = 4;
/// A v14 encoding flag: an ordering's offsets, or an arena's run ends,
/// are one Elias–Fano window, not packed.
const OFFSETS_CODED: u32 = 8;
/// A v14 encoding flag: the bit offsets of an ordering's Elias–Fano
/// vector keys, or of an arena's Elias–Fano run ids, are one Elias–Fano
/// window.
const KEY_OFFSETS_CODED: u32 = 16;
/// A v14 mirror ordering's encoding flag: the bit offsets of its
/// Elias–Fano list references are one Elias–Fano window.
const REF_OFFSETS_CODED: u32 = 32;
/// A v14 ordering's encoding flag: the bit offsets of its header keys'
/// Elias–Fano window are one Elias–Fano window.
const HEADER_OFFSETS_CODED: u32 = 64;

/// The first format version whose cumulative offsets columns may be
/// Elias–Fano coded; an older file's are rebuilt in the encoding their
/// sizes choose as they are read.
const CODED_OFFSETS: u32 = 14;

/// The flag of an Elias–Fano column whose bit offsets are coded; 0 for a
/// packed column or packed bit offsets.
fn bit_offsets_flag(keys: KeysView<'_>, flag: u32) -> u32 {
    match keys {
        KeysView::EliasFano(ef) if ef.offs.is_elias_fano() => flag,
        _ => 0,
    }
}

/// How [`Writer::frozen_with`] stores the prebuilt slab sections.
///
/// ```
/// use hexastore::hexsnap::{Compression, Reader, Writer};
/// use hexastore::Hexastore;
/// use std::io::Cursor;
///
/// let store = Hexastore::from_triples([(0u32, 1, 2).into(), (0, 1, 3).into()]);
/// let mut w = Writer::new(Cursor::new(Vec::new())).unwrap();
/// w.frozen_with(&store, Compression::VarintDelta).unwrap();
/// let bytes = w.finish().unwrap().into_inner();
/// let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
/// assert_eq!(r.frozen().unwrap(), store);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Compression {
    /// Raw `u32` columns (the `FROZ` section): largest on disk, but
    /// mappable in place by `hex-disk`.
    #[default]
    None,
    /// Varint-delta encoded sorted runs (the `FRZC` section, v2 and up):
    /// smallest on disk, decoded through [`crate::compress`] on open.
    VarintDelta,
}

/// Errors reading or writing a `hexsnap` file.
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid snapshot (bad magic, truncation, or an
    /// internally inconsistent section).
    Corrupt(String),
    /// The file declares a format version this build does not read.
    Version(u32),
    /// A write was refused before it reached the write-ahead log: its
    /// record would not have read back as the operation it logs.
    Unloggable(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "hexsnap i/o error: {e}"),
            Error::Corrupt(why) => write!(f, "corrupt hexsnap file: {why}"),
            Error::Version(v) => {
                write!(f, "unsupported hexsnap version {v} (supported: 1..={VERSION})")
            }
            Error::Unloggable(why) => write!(f, "write refused by the log: {why}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

/// `Result` alias for snapshot operations.
pub type Result<T> = std::result::Result<T, Error>;

fn corrupt<T>(why: impl Into<String>) -> Result<T> {
    Err(Error::Corrupt(why.into()))
}

// ---------------------------------------------------------------------
// Little-endian primitives.
// ---------------------------------------------------------------------

fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes a `u32` run through a reusable byte buffer (64 KiB blocks).
fn w_u32_run(w: &mut impl Write, vals: impl Iterator<Item = u32>) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64 * 1024);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= 64 * 1024 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)
}

/// Reads `n` little-endian `u32`s.
fn r_u32_run(r: &mut impl Read, n: usize) -> Result<Vec<u32>> {
    let mut out = Vec::with_capacity(n);
    let mut buf = vec![0u8; (64 * 1024).min(n.max(1) * 4)];
    let mut remaining = n;
    while remaining > 0 {
        let take = buf.len().min(remaining * 4);
        r.read_exact(&mut buf[..take])?;
        out.extend(
            buf[..take].chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        remaining -= take / 4;
    }
    Ok(out)
}

/// Checked usize-from-u64 for declared counts, bounding allocations to
/// what the host can address.
fn checked_len(v: u64, what: &str) -> Result<usize> {
    usize::try_from(v).map_err(|_| Error::Corrupt(format!("{what} count {v} overflows usize")))
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// A streaming `hexsnap` writer over any `Write + Seek` sink, emitting
/// the current format version.
///
/// Sections are written in call order; [`Writer::finish`] appends the
/// section table and trailer. Use the [`save`] / [`save_frozen`]
/// convenience functions for the common whole-file cases.
pub struct Writer<W: Write + Seek> {
    w: W,
    sections: Vec<([u8; 4], u64, u64)>,
}

impl<W: Write + Seek> Writer<W> {
    /// Starts a snapshot under the current format version, [`VERSION`].
    pub fn new(mut w: W) -> Result<Self> {
        w.write_all(&MAGIC)?;
        w_u32(&mut w, VERSION)?;
        Ok(Writer { w, sections: Vec::new() })
    }

    fn begin_section(&mut self) -> Result<u64> {
        Ok(self.w.stream_position()?)
    }

    fn end_section(&mut self, tag: [u8; 4], start: u64) -> Result<()> {
        if self.sections.len() >= MAX_SECTIONS {
            return corrupt(format!("more than {MAX_SECTIONS} sections"));
        }
        let end = self.w.stream_position()?;
        self.sections.push((tag, start, end - start));
        Ok(())
    }

    /// Writes the `DICT` section: the frozen tier's two columns, then the
    /// delta tier's five, in id order (the layout is in the module docs).
    ///
    /// The dictionary's in-memory layout *is* the section layout, so this
    /// copies its buffers straight to the sink — no per-term work.
    pub fn dictionary(&mut self, dict: &Dictionary) -> Result<()> {
        self.dict_section(
            dict.front(),
            dict.term_heads(),
            dict.term_ends(),
            dict.arena_bytes(),
            dict.prefix_ends(),
            dict.prefix_bytes(),
        )
    }

    /// Writes a `DICT` section of this frozen tier and these five delta
    /// columns.
    fn dict_section(
        &mut self,
        front: &FrontImage,
        heads: PackedView<'_>,
        ends: PackedView<'_>,
        arena: &[u8],
        prefix_ends: PackedView<'_>,
        prefixes: &[u8],
    ) -> Result<()> {
        let count = |n: usize, what: &str| {
            u32::try_from(n).map_err(|_| Error::Corrupt(format!("dictionary exceeds 2^32 {what}")))
        };
        self.pad_to_8()?;
        let start = self.begin_section()?;
        w_u32(&mut self.w, front.block)?;
        w_u32(&mut self.w, count(front.len, "frozen terms")?)?;
        self.packed(front.offsets.view())?;
        w_u64(&mut self.w, front.bytes.len() as u64)?;
        self.w.write_all(&front.bytes)?;
        self.packed(front.ids.view())?;
        self.packed(front.ranks.view())?;
        w_u32(&mut self.w, count(heads.len(), "terms")?)?;
        self.packed(heads)?;
        self.packed(ends)?;
        w_u64(&mut self.w, arena.len() as u64)?;
        self.w.write_all(arena)?;
        w_u32(&mut self.w, count(prefix_ends.len(), "prefixes")?)?;
        self.packed(prefix_ends)?;
        w_u64(&mut self.w, prefixes.len() as u64)?;
        self.w.write_all(prefixes)?;
        self.end_section(TAG_DICT, start)
    }

    /// Writes the `TRPL` section: exactly `count` triples from the
    /// iterator, in chunks. Errors if the iterator disagrees with
    /// `count`.
    pub fn triples(&mut self, count: u64, it: impl Iterator<Item = IdTriple>) -> Result<()> {
        let start = self.begin_section()?;
        w_u64(&mut self.w, count)?;
        let mut written = 0u64;
        let mut chunk: Vec<IdTriple> = Vec::with_capacity(TRIPLE_CHUNK);
        let flush = |w: &mut W, chunk: &mut Vec<IdTriple>, written: &mut u64| -> io::Result<()> {
            if chunk.is_empty() {
                return Ok(());
            }
            w_u32(w, chunk.len() as u32)?;
            w_u32_run(w, chunk.iter().map(|t| t.s.0))?;
            w_u32_run(w, chunk.iter().map(|t| t.p.0))?;
            w_u32_run(w, chunk.iter().map(|t| t.o.0))?;
            *written += chunk.len() as u64;
            chunk.clear();
            Ok(())
        };
        for t in it {
            chunk.push(t);
            if chunk.len() == TRIPLE_CHUNK {
                flush(&mut self.w, &mut chunk, &mut written)?;
            }
        }
        flush(&mut self.w, &mut chunk, &mut written)?;
        w_u32(&mut self.w, 0)?; // terminator
        if written != count {
            return corrupt(format!("triple section declared {count} but wrote {written}"));
        }
        self.end_section(TAG_TRPL, start)
    }

    /// Writes the prebuilt slab sections uncompressed — shorthand for
    /// [`Writer::frozen_with`] with [`Compression::None`].
    pub fn frozen(&mut self, store: &FrozenHexastore) -> Result<()> {
        self.frozen_with(store, Compression::None)
    }

    /// Writes the prebuilt slab sections under the chosen compression:
    /// raw `FROZ` columns ([`Compression::None`]) or the varint-delta
    /// `FRZC` section ([`Compression::VarintDelta`]).
    pub fn frozen_with(&mut self, store: &FrozenHexastore, compression: Compression) -> Result<()> {
        match compression {
            Compression::None => self.frozen_raw(store),
            Compression::VarintDelta => self.frozen_compressed(store),
        }
    }

    /// Zero bytes up to the next 8-byte file offset.
    fn pad_to_8(&mut self) -> Result<()> {
        let pos = self.w.stream_position()?;
        self.w.write_all(&[0u8; 7][..padding_to_8(pos)])?;
        Ok(())
    }

    /// Writes one packed column: its `u32` width, zero padding to the next
    /// 8-byte file offset, then its words.
    fn packed(&mut self, column: PackedView<'_>) -> Result<()> {
        w_u32(&mut self.w, column.width())?;
        self.pad_to_8()?;
        self.w.write_all(column.bytes())?;
        Ok(())
    }

    /// Writes the words of a packed column whose width the reader derives
    /// from the count fields: zero padding to the next 8-byte file offset,
    /// then its words.
    fn words(&mut self, column: PackedView<'_>) -> Result<()> {
        self.pad_to_8()?;
        self.w.write_all(column.bytes())?;
        Ok(())
    }

    /// Writes an Elias–Fano column: its base and bit-offset columns, its
    /// stream's length, the stream and the stream's rank directory.
    fn elias_fano(&mut self, ef: EfView<'_>) -> Result<()> {
        self.packed(ef.base)?;
        self.offsets(ef.offs, false)?;
        self.stream(ef.stream)
    }

    /// Writes a bit stream: its length, the stream and its rank
    /// directory.
    fn stream(&mut self, stream: crate::succinct::BitsView<'_>) -> Result<()> {
        let bits =
            u32::try_from(stream.len()).map_err(|_| Error::Corrupt("2^32 stream bits".into()))?;
        w_u32(&mut self.w, bits)?;
        self.packed(stream.bits)?;
        self.words(stream.ranks)
    }

    /// Writes a cumulative offsets column: packed — with its width field,
    /// unless `derived` says the count fields give it — or one Elias–Fano
    /// window: its stream's length, the stream and its select directory.
    fn offsets(&mut self, offs: OffsetsView<'_>, derived: bool) -> Result<()> {
        match offs {
            OffsetsView::Packed(offs) if derived => self.words(offs),
            OffsetsView::Packed(offs) => self.packed(offs),
            OffsetsView::EliasFano(offs) => {
                let bits = u32::try_from(offs.stream.len())
                    .map_err(|_| Error::Corrupt("2^32 stream bits".into()))?;
                w_u32(&mut self.w, bits)?;
                self.packed(offs.stream)?;
                self.words(offs.selects)
            }
        }
    }

    /// Writes a key column: packed, or Elias–Fano coded.
    fn keys(&mut self, keys: KeysView<'_>) -> Result<()> {
        match keys {
            KeysView::Packed(keys) => self.packed(keys),
            KeysView::EliasFano(ef) => self.elias_fano(ef),
        }
    }

    /// Writes the `FROZ` section: the store's slabs as raw columns.
    fn frozen_raw(&mut self, store: &FrozenHexastore) -> Result<()> {
        // The stream is padded to an 8-byte boundary *between* sections
        // before FROZ begins — the table addresses sections explicitly, so
        // the gap is invisible to every reader, and the aligned start puts
        // every packed column on an 8-byte file offset.
        self.pad_to_8()?;
        let count = |n: usize, what: &str| {
            u32::try_from(n).map_err(|_| Error::Corrupt(format!("2^32 {what}")))
        };
        let start = self.begin_section()?;
        w_u64(&mut self.w, store.len() as u64)?;
        for arena in store.arenas() {
            let columns = arena.view();
            let keys = columns.keys.view();
            w_u32(&mut self.w, count(arena.list_count(), "arena lists")?)?;
            w_u32(&mut self.w, count(columns.ends.len().saturating_sub(1), "arena runs")?)?;
            w_u32(&mut self.w, count(keys.len(), "arena run ids")?)?;
            let mut flags = bit_offsets_flag(keys, KEY_OFFSETS_CODED);
            if matches!(keys, KeysView::EliasFano(_)) {
                flags |= KEYS_CODED;
            }
            if columns.ends.is_elias_fano() {
                flags |= OFFSETS_CODED;
            }
            w_u32(&mut self.w, flags)?;
            self.packed(columns.slots)?;
            self.offsets(columns.ends, true)?;
            self.keys(keys)?;
        }
        for ix in store.orderings() {
            let (keys, k2) = (ix.keys.view(), ix.k2.view());
            w_u32(&mut self.w, count(keys.len(), "headers")?)?;
            let mut flags = bit_offsets_flag(k2, KEY_OFFSETS_CODED);
            if let HeadersView::EliasFano(keys) = keys {
                flags |= HEADERS_CODED
                    | bit_offsets_flag(KeysView::EliasFano(keys), HEADER_OFFSETS_CODED);
            }
            if matches!(k2, KeysView::EliasFano(_)) {
                flags |= KEYS_CODED;
            }
            if let Some(lists) = &ix.lists {
                flags |= bit_offsets_flag(lists.view(), REF_OFFSETS_CODED);
                if matches!(lists, KeyColumn::EliasFano(_)) {
                    flags |= REFS_CODED;
                }
            }
            if ix.offs.is_elias_fano() {
                flags |= OFFSETS_CODED;
            }
            w_u32(&mut self.w, flags)?;
            match keys {
                HeadersView::Bitmap(map) => {
                    w_u32(&mut self.w, count(map.bits.len(), "header bitmap bits")?)?;
                    self.packed(map.bits.bits)?;
                    self.words(map.bits.ranks)?;
                }
                HeadersView::EliasFano(ef) => self.elias_fano(ef)?,
            }
            self.offsets(ix.offs.view(), false)?;
            w_u32(&mut self.w, count(ix.k2.len(), "vector entries")?)?;
            self.keys(k2)?;
            if let Some(lists) = &ix.lists {
                self.keys(lists.view())?;
            }
        }
        self.end_section(TAG_FROZ, start)
    }

    /// Writes the `FRZC` section: the store's slabs varint-delta
    /// compressed, sealed with an FNV-1a checksum.
    fn frozen_compressed(&mut self, store: &FrozenHexastore) -> Result<()> {
        let payload = encode_frozen_payload(store);
        let start = self.begin_section()?;
        w_u64(&mut self.w, store.len() as u64)?;
        w_u64(&mut self.w, payload.len() as u64)?;
        w_u32(&mut self.w, crate::compress::fnv1a(&payload))?;
        self.w.write_all(&payload)?;
        self.end_section(TAG_FRZC, start)
    }

    /// Writes the section table and trailer, returning the sink.
    pub fn finish(mut self) -> Result<W> {
        let table_pos = self.w.stream_position()?;
        w_u32(&mut self.w, self.sections.len() as u32)?;
        for (tag, off, len) in &self.sections {
            self.w.write_all(tag)?;
            w_u64(&mut self.w, *off)?;
            w_u64(&mut self.w, *len)?;
        }
        w_u64(&mut self.w, table_pos)?;
        self.w.write_all(&MAGIC)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

// ---------------------------------------------------------------------
// Column locations.
// ---------------------------------------------------------------------

/// Where one column of a section lies in the file. The element width is
/// the field's: one byte for the `DICT` kind column and string arenas,
/// four for every other column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Column {
    /// File offset of the column's first byte.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

/// Where the frozen tier of a v11 `DICT` section lies
/// ([`Reader::dict_columns`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrontColumns {
    /// Keys per block, at least 1.
    pub block: u32,
    /// Number of frozen terms.
    pub terms: usize,
    /// Each block's first byte in `bytes`, then the end of `bytes`.
    pub offsets: Packed,
    /// The front-coded blocks.
    pub bytes: Column,
    /// The frozen id of each key, in key order.
    pub ids: Packed,
    /// The position of each frozen id's key in key order.
    pub ranks: Packed,
}

/// The delta-tier columns of a `DICT` section ([`Reader::dict_columns`]):
/// every column of one before v11.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DictColumns {
    /// v5 on: every term a head and its own bytes, under a shared prefix.
    Prefixed {
        /// One head per term: the kind in the low three bits, the prefix
        /// id above; `u32`s before v10, packed from v10 on.
        heads: Ints,
        /// The cumulative end of each term's own bytes; `u32`s before
        /// v10, packed from v10 on.
        ends: Ints,
        /// The terms' own bytes.
        arena: Column,
        /// The cumulative end of each prefix; `u32`s before v10, packed
        /// from v10 on.
        prefix_ends: Ints,
        /// The prefixes' bytes.
        prefixes: Column,
    },
    /// Before v5: every term one or two whole string pieces.
    Pieces {
        /// One kind byte per term.
        kinds: Column,
        /// The cumulative `u32` end offset of every string piece.
        ends: Column,
        /// The UTF-8 string arena, in bytes.
        arena: Column,
    },
}

/// Where one bit-packed column of a `FROZ` (v6+) or `DICT` (v10+)
/// section lies: `len`
/// values of `width` bits in [`crate::packed::bytes_for`] bytes starting
/// on an 8-byte file offset ([`crate::packed`] has the encoding).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Packed {
    /// File offset of the first byte.
    pub offset: usize,
    /// Bits per value, at most 32.
    pub width: u32,
    /// Number of values.
    pub len: usize,
}

impl Packed {
    /// Number of bytes the column takes.
    pub fn bytes(&self) -> usize {
        bytes_for(self.len, self.width).expect("bounded by its section when located")
    }
}

/// An integer column of a `FROZ` section — plain `u32`s before v6
/// (before v7 for list slots, before v8 for overflow words), bit-packed
/// from then on — or of a `DICT` section, `u32`s before v10.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ints {
    /// One `u32` per value.
    U32(Column),
    /// Values bit-packed at the column's width.
    Packed(Packed),
}

impl Ints {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Ints::U32(col) => col.len,
            Ints::Packed(col) => col.len,
        }
    }

    /// True when the column holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a `FROZ` level stores its windows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Windows {
    /// `n + 1` cumulative offsets (v3 and later; packed from v6).
    Offsets(Ints),
    /// `n + 1` cumulative offsets as one Elias–Fano window (v14).
    EliasFano(OffsetsWindow),
    /// `n` `(offset, length)` pairs, `2n` `u32`s (before v3).
    Pairs(Column),
}

/// Where a cumulative offsets column of `len` values lies when it is one
/// Elias–Fano window (v14; [`crate::succinct::EfOffsets`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OffsetsWindow {
    /// The `l`, high region and low parts, width 1.
    pub stream: Packed,
    /// The position of every 64th value's one after the first
    /// ([`crate::succinct::SELECT_STEP`]).
    pub selects: Packed,
    /// The number of values.
    pub len: usize,
}

/// Where a cumulative offsets column of a v9 or later `FROZ` section —
/// an arena's run ends, an Elias–Fano column's bit offsets — lies:
/// packed, or (v14) one Elias–Fano window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Offsets {
    /// Packed at the width of the last value.
    Packed(Packed),
    /// One Elias–Fano window.
    EliasFano(OffsetsWindow),
}

impl Offsets {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Offsets::Packed(col) => col.len,
            Offsets::EliasFano(window) => window.len,
        }
    }

    /// True when the column holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packed column, `None` for an Elias–Fano window.
    pub fn packed(self) -> Option<Packed> {
        match self {
            Offsets::Packed(col) => Some(col),
            Offsets::EliasFano(_) => None,
        }
    }
}

/// The columns of one `FROZ` arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArenaColumns {
    /// v12: the [`FlatArena`]'s slot, run-ends and key columns
    /// ([`crate::slab`] has the encoding).
    Runs {
        /// One packed slot per list: its only id, or under the flag the
        /// index of its run.
        slots: Packed,
        /// The cumulative end of each run in `keys`, one entry more than
        /// runs: packed, or (v14) one Elias–Fano window.
        ends: Offsets,
        /// Every run's ids: packed, or Elias–Fano coded run by run.
        keys: VectorKeys,
        /// The number of run ids the section declares.
        len: usize,
    },
    /// v4 to v11: a slot column whose flagged slots hold the position of
    /// a length word in an overflow column, followed there by the list's
    /// ids.
    Slots {
        /// One slot per list: a `u32` with the flag in bit 31 before v7,
        /// packed one flag bit above the widest slot's value from v7 on.
        slots: Ints,
        /// The longer lists' length words and ids: `u32`s before v8,
        /// packed at the largest word's width from v8 on.
        over: Ints,
    },
    /// Before v4: every list a window over one item column.
    Items {
        /// The lists' windows into `items`.
        windows: Windows,
        /// Every list's ids, list after list.
        items: Column,
    },
}

/// Where the four columns of an Elias–Fano coded key column lie (v9;
/// [`crate::succinct`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EfColumns {
    /// Each window's first key.
    pub base: Packed,
    /// Where each window's bits start, one entry more than windows:
    /// packed, or (v14) one Elias–Fano window.
    pub offs: Offsets,
    /// The windows' bits, width 1 (0 when empty).
    pub stream: Packed,
    /// Set bits of the stream before each 512-bit block.
    pub ranks: Packed,
}

/// How a `FROZ` ordering stores its header keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Headers {
    /// One `u32` per header (before v9).
    U32(Column),
    /// A presence bitmap over the ids up to the largest key and its rank
    /// directory, both packed (v9).
    Bitmap {
        /// The bits, width 1 (0 when there is no header).
        bits: Packed,
        /// Set bits before each 512-bit block.
        ranks: Packed,
        /// The header count the section declares.
        count: usize,
    },
    /// One Elias–Fano window of every key (v9).
    EliasFano {
        /// The window's columns.
        ef: EfColumns,
        /// The header count the section declares.
        count: usize,
    },
}

impl Headers {
    /// The `u32` key column of a file before v9.
    pub fn plain(self) -> Option<Column> {
        match self {
            Headers::U32(col) => Some(col),
            _ => None,
        }
    }
}

/// How a `FROZ` ordering stores its vector keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VectorKeys {
    /// One integer per key: `u32`s before v6, packed from v6 on.
    Ints(Ints),
    /// Elias–Fano windows, one per header (v9).
    EliasFano(EfColumns),
}

impl VectorKeys {
    /// The integer column of a packed (or, before v6, `u32`) ordering.
    pub fn plain(self) -> Option<Ints> {
        match self {
            VectorKeys::Ints(ints) => Some(ints),
            VectorKeys::EliasFano(_) => None,
        }
    }
}

/// How a `FROZ` ordering stores its list references.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ListRefs {
    /// One integer per leaf, `u32`s before v6 and packed from v6 on, as
    /// one column the windows do not cut (before v13).
    Plain(Ints),
    /// Windowed by the ordering's offsets as its vector keys are, each
    /// window strictly ascending: packed, or Elias–Fano coded window by
    /// window (v13).
    Windows(VectorKeys),
}

impl ListRefs {
    /// The integer column of a file before v13.
    pub fn plain(self) -> Option<Ints> {
        match self {
            ListRefs::Plain(ints) => Some(ints),
            ListRefs::Windows(_) => None,
        }
    }
}

/// The columns of one `FROZ` ordering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OrderingColumns {
    /// The header keys.
    pub keys: Headers,
    /// Each header's window into the vector keys.
    pub windows: Windows,
    /// The vector count the section declares: the ordering's leaves.
    pub vector: usize,
    /// The vector keys.
    pub k2: VectorKeys,
    /// The list references: mirror orderings only from v3 on, every
    /// ordering before.
    pub lists: Option<ListRefs>,
    /// Index into [`FrozenColumns::arenas`] of the arena holding this
    /// ordering's lists.
    pub arena: usize,
}

/// The columns of a raw `FROZ` section ([`Reader::frozen_columns`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrozenColumns {
    /// The file's format version.
    pub version: u32,
    /// The triple count the section declares.
    pub triples: usize,
    /// The object-, property- and subject-list arenas.
    pub arenas: [ArenaColumns; 3],
    /// The orderings, in [`IndexKind::ALL`] order.
    pub orderings: [OrderingColumns; 6],
}

/// A walk over one section's count fields: each count is read where the
/// layout puts it, and the column it sizes is stepped over once it is
/// known to end inside the section — so a flipped count byte is a
/// rejection before it can become an allocation.
struct Walk<'r, R> {
    r: &'r mut R,
    /// File offset of the next field.
    pos: u64,
    /// File offset just past the section.
    end: u64,
    tag: [u8; 4],
    /// True from v12, where a column whose width follows from the count
    /// fields — a rank directory, an arena's run ends — stores none.
    derived: bool,
}

impl<R: Read + Seek> Walk<'_, R> {
    /// Steps over the next `bytes` bytes, returning their file offset.
    fn take(&mut self, bytes: Option<u64>, what: &str) -> Result<u64> {
        let at = self.pos;
        match bytes.and_then(|b| at.checked_add(b)).filter(|&end| end <= self.end) {
            Some(end) => {
                self.pos = end;
                Ok(at)
            }
            None => corrupt(format!("{what} exceeds the {} section", tag_name(self.tag))),
        }
    }

    /// Steps over the next `width`-byte count field, returning the source
    /// positioned at it.
    fn field(&mut self, width: u64, what: &str) -> Result<&mut R> {
        let at = self.take(Some(width), what)?;
        self.r.seek(SeekFrom::Start(at))?;
        Ok(self.r)
    }

    fn count32(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from(r_u32(self.field(4, what)?)?))
    }

    fn count64(&mut self, what: &str) -> Result<u64> {
        Ok(r_u64(self.field(8, what)?)?)
    }

    /// Steps over the padding up to the next 8-byte file offset, which
    /// must be zero bytes: at most 7 of them, so the walk stays one read
    /// per field.
    fn align_8(&mut self, what: &str) -> Result<()> {
        let mut pad = [0u8; 7];
        let pad = &mut pad[..padding_to_8(self.pos)];
        self.field(pad.len() as u64, what)?.read_exact(pad)?;
        if pad.iter().any(|&b| b != 0) {
            return corrupt(format!("{what} is preceded by non-zero padding"));
        }
        Ok(())
    }

    /// Steps over an integer column of `len` values: `len` `u32`s unless
    /// `packed`; packed, a `u32` width (at most 32), zero padding to an
    /// 8-byte file offset and the packed words.
    fn ints(&mut self, packed: bool, len: u64, what: &str) -> Result<Ints> {
        if !packed {
            return Ok(Ints::U32(self.column(len, 4, what)?));
        }
        let width = self.count32(what)?;
        if width > u64::from(MAX_WIDTH) {
            return corrupt(format!("{what} is {width} bits wide, above {MAX_WIDTH}"));
        }
        self.align_8(what)?;
        let len =
            usize::try_from(len).map_err(|_| Error::Corrupt(format!("{what} overflows usize")))?;
        let width = width as u32;
        let bytes = bytes_for(len, width).map_or(u64::MAX, |bytes| bytes as u64);
        let Column { offset, .. } = self.column(bytes, 1, what)?;
        Ok(Ints::Packed(Packed { offset, width, len }))
    }

    /// Steps over a packed column of `len` values whose width the count
    /// fields give: padding to an 8-byte file offset and the packed words.
    fn derived(&mut self, len: u64, width: u32, what: &str) -> Result<Packed> {
        self.align_8(what)?;
        let len =
            usize::try_from(len).map_err(|_| Error::Corrupt(format!("{what} overflows usize")))?;
        let bytes = bytes_for(len, width).map_or(u64::MAX, |bytes| bytes as u64);
        let Column { offset, .. } = self.column(bytes, 1, what)?;
        Ok(Packed { offset, width, len })
    }

    /// Steps over a packed column of `len` values.
    fn packed(&mut self, len: u64, what: &str) -> Result<Packed> {
        match self.ints(true, len, what)? {
            Ints::Packed(col) => Ok(col),
            Ints::U32(_) => unreachable!("a packed walk"),
        }
    }

    /// Steps over a bit stream of `len` bits and its rank directory.
    fn stream(&mut self, len: u64, what: &str) -> Result<(Packed, Packed)> {
        let bits = self.packed(len, what)?;
        let n = usize::try_from(len).unwrap_or(usize::MAX);
        let (samples, directory) = (samples(n) as u64, format!("{what}'s directory"));
        let ranks = if self.derived {
            self.derived(samples, sample_width(n), &directory)?
        } else {
            self.packed(samples, &directory)?
        };
        if !check_stream_shape(bits.width, bits.len, ranks.width, ranks.len) {
            return corrupt(format!("{what} has the widths of no bit stream"));
        }
        Ok((bits, ranks))
    }

    /// Steps over an Elias–Fano column of `windows` windows: its base
    /// and bit-offset columns — the latter one Elias–Fano window when
    /// `coded` — its stream's length, the stream and the stream's
    /// directory.
    ///
    /// Every key after a window's first is a one of the stream, so a
    /// column declaring more than `windows` keys beyond its stream's
    /// length is refused here: no read sizes anything by a count its bits
    /// cannot hold.
    fn elias_fano(
        &mut self,
        windows: u64,
        keys: u64,
        coded: bool,
        what: &str,
    ) -> Result<EfColumns> {
        let base = self.packed(windows, &format!("{what}'s base column"))?;
        let offs =
            self.offsets(coded, windows + 1, None, &format!("{what}'s bit-offset column"))?;
        let bits = self.count32(&format!("{what}'s stream length"))?;
        let (stream, ranks) = self.stream(bits, &format!("{what}'s stream"))?;
        if keys > windows + bits {
            return corrupt(format!("{what} declares more keys than its stream holds"));
        }
        Ok(EfColumns { base, offs, stream, ranks })
    }

    /// Steps over a cumulative offsets column of `len` values: one
    /// Elias–Fano window when `coded` — its stream's length, the stream
    /// and its select directory — else packed, with a width field unless
    /// the count fields give the width (`derived`).
    fn offsets(
        &mut self,
        coded: bool,
        len: u64,
        derived: Option<u32>,
        what: &str,
    ) -> Result<Offsets> {
        if !coded {
            return Ok(Offsets::Packed(match derived {
                Some(width) => self.derived(len, width, what)?,
                None => self.packed(len, what)?,
            }));
        }
        let bits = self.count32(&format!("{what}'s stream length"))?;
        let stream = self.packed(bits, what)?;
        // Its `l` and a one a value at least.
        if bits < L_BITS as u64 + len {
            return corrupt(format!("{what} is shorter than its {len} values"));
        }
        if stream.width != 1 {
            return corrupt(format!("{what} has the widths of no bit stream"));
        }
        let len = checked_len(len, what)?;
        let (samples, width) = (select_samples(len), select_width(len, stream.len));
        let selects = self.derived(samples as u64, width, &format!("{what}'s select directory"))?;
        Ok(Offsets::EliasFano(OffsetsWindow { stream, selects, len }))
    }

    /// Steps over a column of `len` elements, `width` bytes each.
    fn column(&mut self, len: u64, width: u64, what: &str) -> Result<Column> {
        let offset = self.take(len.checked_mul(width), what)?;
        let fits = |v: u64| {
            usize::try_from(v).map_err(|_| Error::Corrupt(format!("{what} overflows usize")))
        };
        Ok(Column { offset: fits(offset)?, len: fits(len)? })
    }
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// A `hexsnap` reader over any `Read + Seek` source.
///
/// Construction validates the header, trailer and section table, so a
/// truncated or non-snapshot file is rejected before any section is
/// touched. Use [`load`] / [`load_frozen`] for the common whole-file
/// cases.
pub struct Reader<R: Read + Seek> {
    r: R,
    version: u32,
    sections: Vec<([u8; 4], u64, u64)>,
}

impl<R: Read + Seek> Reader<R> {
    /// Opens a snapshot, validating magic, version, trailer and table.
    pub fn new(mut r: R) -> Result<Self> {
        let file_len = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        // Smallest well-formed file: header (magic + version), an empty
        // section table (count only), table offset, trailer magic.
        if file_len < (MAGIC.len() + 4 + 4 + 8 + MAGIC.len()) as u64 {
            return corrupt("file too short for a snapshot");
        }
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return corrupt("bad magic (not a hexsnap file)");
        }
        let version = r_u32(&mut r)?;
        if !(1..=VERSION).contains(&version) {
            return Err(Error::Version(version));
        }
        r.seek(SeekFrom::End(-16))?;
        let table_pos = r_u64(&mut r)?;
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return corrupt("bad trailer magic (truncated file?)");
        }
        if table_pos < 12 || table_pos > file_len - 16 - 4 {
            return corrupt("section table offset out of range");
        }
        r.seek(SeekFrom::Start(table_pos))?;
        let count = r_u32(&mut r)? as usize;
        // Each entry is tag(4) + offset(8) + length(8); the whole table
        // must fit between table_pos and the trailer.
        if count > MAX_SECTIONS || table_pos + 4 + count as u64 * 20 > file_len - 16 {
            return corrupt("section table does not fit the file");
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let mut tag = [0u8; 4];
            r.read_exact(&mut tag)?;
            let off = r_u64(&mut r)?;
            let len = r_u64(&mut r)?;
            if off < 12 || off.checked_add(len).is_none_or(|end| end > table_pos) {
                return corrupt("section extent out of range");
            }
            sections.push((tag, off, len));
        }
        Ok(Reader { r, version, sections })
    }

    /// The format version the file declares (in `1..=`[`VERSION`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Byte extent `(offset, length)` of the raw `FROZ` section, if the
    /// file carries one — the section whose columns an mmap-backed opener
    /// (the `hex-disk` crate) views in place. Compressed `FRZC`
    /// sections have no mappable extent and report `None`.
    pub fn frozen_section_extent(&self) -> Option<(u64, u64)> {
        self.section_extent(TAG_FROZ)
    }

    /// Byte extent `(offset, length)` of the first section tagged `tag`
    /// (`*b"DICT"`, `*b"FROZ"`, …), if the file carries one.
    pub fn section_extent(&self, tag: [u8; 4]) -> Option<(u64, u64)> {
        self.sections.iter().find(|(t, _, _)| *t == tag).map(|&(_, off, len)| (off, len))
    }

    /// A section's `(offset, length)`, or `Corrupt` naming it missing.
    fn extent(&self, tag: [u8; 4]) -> Result<(u64, u64)> {
        self.section_extent(tag)
            .ok_or_else(|| Error::Corrupt(format!("missing {} section", tag_name(tag))))
    }

    /// Positions the reader at a section's start, returning `(end, len)`.
    fn seek_section(&mut self, tag: [u8; 4]) -> Result<(u64, u64)> {
        let (off, len) = self.extent(tag)?;
        self.r.seek(SeekFrom::Start(off))?;
        Ok((off + len, len))
    }

    /// Starts a [`Walk`] over a section's count fields.
    fn walk(&mut self, tag: [u8; 4]) -> Result<Walk<'_, R>> {
        let (off, len) = self.extent(tag)?;
        let derived = self.version >= 12;
        Ok(Walk { r: &mut self.r, pos: off, end: off + len, tag, derived })
    }

    /// Locates the columns of the `DICT` section, reading only its count
    /// fields: the frozen tier of a v11 section, `None` before v11, and
    /// the delta tier, every column before v11.
    ///
    /// The frozen tier is the section's first fields: `u32 block`, `u32
    /// n_frozen`, the packed block offsets (`⌈n_frozen / block⌉ + 1`
    /// values), `u64 n_block_bytes`, the blocks, then the packed ids and
    /// ranks (`n_frozen` values each). The delta tier, v5 on: `u32
    /// n_terms`, the heads, the term ends, `u64 n_bytes`, the term arena,
    /// `u32 n_prefixes`, the prefix ends, `u64 n_prefix_bytes`, the prefix
    /// arena, the three integer columns `u32`s before v10 ([`Ints::U32`])
    /// and packed from v10 on ([`Ints::Packed`], each width checked to be
    /// at most 32 and the padding before its words to be zero); before v5:
    /// `u32 n_terms`, the kind bytes, `u32 n_pieces`, the piece offsets,
    /// `u64 n_bytes`, the string arena. Every column is bounded by the
    /// section before anything is allocated.
    pub fn dict_columns(&mut self) -> Result<(Option<FrontColumns>, DictColumns)> {
        let tiered = self.version >= 11;
        let prefixed = self.version >= 5;
        let packed = self.version >= 10;
        let mut walk = self.walk(TAG_DICT)?;
        let front = if tiered {
            let block = walk.count32("dictionary block size")?;
            if block == 0 {
                return corrupt("dictionary block size is 0");
            }
            let terms = walk.count32("dictionary frozen term count")?;
            let offsets =
                walk.packed(terms.div_ceil(block) + 1, "dictionary block offset column")?;
            let bytes = walk.count64("dictionary block bytes size")?;
            let bytes = walk.column(bytes, 1, "dictionary blocks")?;
            let ids = walk.packed(terms, "dictionary key id column")?;
            let ranks = walk.packed(terms, "dictionary key rank column")?;
            let (block, terms) = (block as u32, terms as usize);
            Some(FrontColumns { block, terms, offsets, bytes, ids, ranks })
        } else {
            None
        };
        let terms = walk.count32("dictionary term count")?;
        if !prefixed {
            let kinds = walk.column(terms, 1, "dictionary kind column")?;
            let pieces = walk.count32("dictionary piece count")?;
            let ends = walk.column(pieces, 4, "dictionary piece offset table")?;
            let bytes = walk.count64("dictionary arena size")?;
            let arena = walk.column(bytes, 1, "dictionary string arena")?;
            return Ok((front, DictColumns::Pieces { kinds, ends, arena }));
        }
        let heads = walk.ints(packed, terms, "dictionary head column")?;
        let ends = walk.ints(packed, terms, "dictionary term offset table")?;
        let bytes = walk.count64("dictionary arena size")?;
        let arena = walk.column(bytes, 1, "dictionary term arena")?;
        let prefixes = walk.count32("dictionary prefix count")?;
        let prefix_ends = walk.ints(packed, prefixes, "dictionary prefix offset table")?;
        let bytes = walk.count64("dictionary prefix arena size")?;
        let prefixes = walk.column(bytes, 1, "dictionary prefix arena")?;
        Ok((front, DictColumns::Prefixed { heads, ends, arena, prefix_ends, prefixes }))
    }

    /// Locates every column of the raw `FROZ` section, reading only its
    /// count fields (the layout is in the module docs). Every column is
    /// bounded by the section before anything is allocated, and an arena
    /// that declares other than one item per triple is refused. This is the
    /// one place that knows how the section changed between versions:
    /// windows are `(offset, length)` pairs and every ordering keeps list
    /// references before v3, an arena is windows over an item column
    /// before v4, an ordering's offsets, vector keys and list references
    /// are `u32`s before v6 ([`Ints::U32`]) and packed from v6 on
    /// ([`Ints::Packed`], its width checked to be at most 32 and the
    /// padding before its words to be zero), an arena's slots are `u32`s
    /// before v7 and packed from v7 on, its overflow words are `u32`s
    /// before v8 and packed from v8 on, and an ordering's header keys are
    /// `u32`s before v9 ([`Headers::U32`]) and a bitmap or an Elias–Fano
    /// window from v9 on, its vector keys packed or Elias–Fano coded as
    /// its encoding flags say (every bit stream's widths checked to be
    /// those of a stream and its directory), and a mirror's list
    /// references one packed column before v13 ([`ListRefs::Plain`]) and
    /// from v13 on windowed, packed or Elias–Fano coded as its flags say
    /// ([`ListRefs::Windows`]). A primary ordering whose
    /// vector count is not its arena's list count is refused too, as no
    /// column's length need hang on it.
    pub fn frozen_columns(&mut self) -> Result<FrozenColumns> {
        let pairs = spells_out_derivables(self.version);
        let item_arenas = self.version < 4;
        let run_arenas = self.version >= 12;
        let packed = self.version >= 6;
        let packed_slots = self.version >= 7;
        let packed_overflow = self.version >= 8;
        let succinct = self.version >= 9;
        let windowed_refs = self.version >= 13;
        let coded_offsets = self.version >= CODED_OFFSETS;
        let version = self.version;
        let mut walk = self.walk(TAG_FROZ)?;
        let windows =
            |walk: &mut Walk<'_, R>, n: u64, coded: bool, what: &str| -> Result<Windows> {
                Ok(if pairs {
                    Windows::Pairs(walk.column(2 * n, 4, what)?)
                } else if coded {
                    match walk.offsets(true, n + 1, None, what)? {
                        Offsets::EliasFano(window) => Windows::EliasFano(window),
                        Offsets::Packed(_) => unreachable!("a coded walk"),
                    }
                } else {
                    Windows::Offsets(walk.ints(packed, n + 1, what)?)
                })
            };
        // The v14 flags of a column's offsets, allowed only beside the
        // flag of the coded column they cut.
        let offsets_flags = |flags: u32, coded_keys: u32, key_offsets: u32| {
            let keys = if flags & coded_keys != 0 { key_offsets } else { 0 };
            if coded_offsets {
                OFFSETS_CODED | keys
            } else {
                0
            }
        };
        let triples = walk.count64("triple count")?;
        let (mut arenas, mut list_counts) = (Vec::with_capacity(3), [0; 3]);
        for list_count in &mut list_counts {
            let lists = walk.count32("arena list count")?;
            *list_count = lists;
            if run_arenas {
                let runs = walk.count32("arena run count")?;
                let len = walk.count32("arena run id count")?;
                let flags = walk.count32("arena encoding flags")? as u32;
                if flags & !(KEYS_CODED | offsets_flags(flags, KEYS_CODED, KEY_OFFSETS_CODED)) != 0
                {
                    return corrupt(format!("unknown arena encoding flags {flags:#x}"));
                }
                // A list is a singleton or a run, and every triple puts one
                // item in each arena, so other counts are refused before
                // any column is touched.
                if runs > lists || lists - runs + len != triples {
                    return corrupt("declared triple count disagrees with slab columns");
                }
                let slots = walk.packed(lists, "arena slot column")?;
                let width = width_of(len as u32);
                let coded = flags & OFFSETS_CODED != 0;
                let ends = walk.offsets(coded, runs + 1, Some(width), "arena run-ends column")?;
                let keys = if flags & KEYS_CODED == 0 {
                    VectorKeys::Ints(walk.ints(true, len, "arena key column")?)
                } else {
                    let coded = flags & KEY_OFFSETS_CODED != 0;
                    VectorKeys::EliasFano(walk.elias_fano(runs, len, coded, "arena run keys")?)
                };
                let len = checked_len(len, "arena run id")?;
                arenas.push(ArenaColumns::Runs { slots, ends, keys, len });
                continue;
            }
            // Every triple contributes one item to each arena, so another
            // count is refused before any column is touched.
            if walk.count64("arena item count")? != triples {
                return corrupt("declared triple count disagrees with slab columns");
            }
            arenas.push(if item_arenas {
                let windows = windows(&mut walk, lists, false, "arena offsets column")?;
                ArenaColumns::Items {
                    windows,
                    items: walk.column(triples, 4, "arena item column")?,
                }
            } else {
                let over = walk.count32("arena overflow count")?;
                let slots = walk.ints(packed_slots, lists, "arena slot column")?;
                let over = walk.ints(packed_overflow, over, "arena overflow column")?;
                ArenaColumns::Slots { slots, over }
            });
        }
        let mut orderings = Vec::with_capacity(6);
        for (which, kind) in IndexKind::ALL.into_iter().enumerate() {
            let headers = walk.count32("ordering header count")?;
            let flags = if succinct { walk.count32("ordering encoding flags")? as u32 } else { 0 };
            let refs_flag = if windowed_refs && kind.is_mirror() { REFS_CODED } else { 0 };
            let allowed = HEADERS_CODED
                | KEYS_CODED
                | refs_flag
                | offsets_flags(flags, KEYS_CODED, KEY_OFFSETS_CODED)
                | offsets_flags(flags, HEADERS_CODED, HEADER_OFFSETS_CODED)
                | offsets_flags(flags, refs_flag, REF_OFFSETS_CODED);
            if flags & !allowed != 0 {
                return corrupt(format!("unknown ordering encoding flags {flags:#x}"));
            }
            let keys = if !succinct {
                Headers::U32(walk.column(headers, 4, "ordering key column")?)
            } else if flags & HEADERS_CODED == 0 {
                let bits = walk.count32("ordering header bitmap length")?;
                if headers > bits {
                    return corrupt("ordering header count exceeds its bitmap");
                }
                let (bits, ranks) = walk.stream(bits, "ordering header bitmap")?;
                Headers::Bitmap { bits, ranks, count: headers as usize }
            } else {
                let coded = flags & HEADER_OFFSETS_CODED != 0;
                let ef =
                    walk.elias_fano(headers.min(1), headers, coded, "ordering header window")?;
                Headers::EliasFano { ef, count: headers as usize }
            };
            let coded = flags & OFFSETS_CODED != 0;
            let windows = windows(&mut walk, headers, coded, "ordering offsets column")?;
            let vector = walk.count32("ordering vector count")?;
            // A primary's leaf `i` is its arena's list `i`; a mirror's
            // list column is `vector` long.
            if !kind.is_mirror() && vector != list_counts[ARENA_OF[which]] {
                return corrupt("a primary ordering's vector count is not its arena's list count");
            }
            let k2 = if flags & KEYS_CODED == 0 {
                VectorKeys::Ints(walk.ints(packed, vector, "ordering vector column")?)
            } else {
                let coded = flags & KEY_OFFSETS_CODED != 0;
                let what = "ordering vector keys";
                VectorKeys::EliasFano(walk.elias_fano(headers, vector, coded, what)?)
            };
            let lists = if !(pairs || kind.is_mirror()) {
                None
            } else if !windowed_refs {
                Some(ListRefs::Plain(walk.ints(packed, vector, "ordering list column")?))
            } else if flags & REFS_CODED == 0 {
                let refs = walk.ints(true, vector, "ordering list references")?;
                Some(ListRefs::Windows(VectorKeys::Ints(refs)))
            } else {
                let coded = flags & REF_OFFSETS_CODED != 0;
                let refs = walk.elias_fano(headers, vector, coded, "ordering list references")?;
                Some(ListRefs::Windows(VectorKeys::EliasFano(refs)))
            };
            let (vector, arena) = (checked_len(vector, "ordering vector")?, ARENA_OF[which]);
            orderings.push(OrderingColumns { keys, windows, vector, k2, lists, arena });
        }
        Ok(FrozenColumns {
            version,
            triples: checked_len(triples, "triple")?,
            arenas: arenas.try_into().expect("exactly three arenas"),
            orderings: orderings.try_into().expect("exactly six orderings"),
        })
    }

    /// Reads the bytes of `at` into an exact-sized buffer: the eager
    /// reader's column source.
    fn bytes(&mut self, at: Range<usize>) -> Result<Vec<u8>> {
        self.r.seek(SeekFrom::Start(at.start as u64))?;
        let mut out = vec![0u8; at.len()];
        self.r.read_exact(&mut out)?;
        Ok(out)
    }

    /// Rejects a section whose parse consumed bytes past its declared
    /// extent — per-field bounds alone cannot catch counts that each fit
    /// the section but sum past its end into the next section's bytes,
    /// which must be a rejection, never a silent misread.
    fn check_section_end(&mut self, end: u64) -> Result<()> {
        if self.r.stream_position()? > end {
            return corrupt("section contents overrun the declared extent");
        }
        Ok(())
    }

    /// True if the snapshot carries prebuilt slab sections, raw (`FROZ`)
    /// or compressed (`FRZC`).
    pub fn has_frozen(&self) -> bool {
        self.sections.iter().any(|(t, _, _)| *t == TAG_FROZ || *t == TAG_FRZC)
    }

    /// Reads the `DICT` section into a [`Dictionary`] whose ids are the
    /// stored term indices: [`dictionary_from_columns`] over the columns
    /// [`Reader::dict_columns`] locates, each
    /// read into an owned buffer.
    pub fn dictionary(&mut self) -> Result<Dictionary> {
        let (front, columns) = self.dict_columns()?;
        dictionary_from_columns(front, columns, |at| Ok(self.bytes(at)?.into()))
    }

    /// The triples of a snapshot that stores slabs instead of a `TRPL`
    /// column, enumerated from its spo ordering — the order a `TRPL`
    /// column written by [`save`] has. `None` when the file has a `TRPL`
    /// section (or neither).
    fn slab_triples(&mut self) -> Result<Option<Vec<IdTriple>>> {
        if self.sections.iter().any(|(t, _, _)| *t == TAG_TRPL) || !self.has_frozen() {
            return Ok(None);
        }
        Ok(Some(self.frozen()?.matching(IdPattern::ALL)))
    }

    /// Streams the snapshot's triples chunk by chunk, in `(s, p, o)`
    /// order for files this crate wrote — from the `TRPL` section, or
    /// from the slabs' spo ordering when the file stores only those.
    /// Returns the total triple count.
    pub fn for_each_triple_chunk(&mut self, mut f: impl FnMut(&[IdTriple])) -> Result<u64> {
        if let Some(triples) = self.slab_triples()? {
            triples.chunks(TRIPLE_CHUNK).for_each(f);
            return Ok(triples.len() as u64);
        }
        let (section_end, _) = self.seek_section(TAG_TRPL)?;
        let declared = r_u64(&mut self.r)?;
        let mut seen = 0u64;
        let mut chunk: Vec<IdTriple> = Vec::new();
        loop {
            let len = r_u32(&mut self.r)? as usize;
            if len == 0 {
                break;
            }
            if len > TRIPLE_CHUNK || seen + len as u64 > declared {
                return corrupt("triple chunk exceeds declared count");
            }
            let s = r_u32_run(&mut self.r, len)?;
            let p = r_u32_run(&mut self.r, len)?;
            let o = r_u32_run(&mut self.r, len)?;
            chunk.clear();
            chunk.extend(s.iter().zip(&p).zip(&o).map(|((&s, &p), &o)| IdTriple::from((s, p, o))));
            seen += len as u64;
            f(&chunk);
        }
        if seen != declared {
            return corrupt(format!("triple section declared {declared}, found {seen}"));
        }
        self.check_section_end(section_end)?;
        Ok(seen)
    }

    /// Collects the snapshot's triples — see
    /// [`Reader::for_each_triple_chunk`] for where they come from.
    pub fn triples(&mut self) -> Result<Vec<IdTriple>> {
        if let Some(triples) = self.slab_triples()? {
            return Ok(triples);
        }
        let (_, section_len) = self.seek_section(TAG_TRPL)?;
        let declared = checked_len(r_u64(&mut self.r)?, "triple")?;
        if (declared as u64).checked_mul(12).is_none_or(|bytes| bytes > section_len) {
            return corrupt("triple count exceeds section size");
        }
        let mut out = Vec::with_capacity(declared);
        self.for_each_triple_chunk(|chunk| out.extend_from_slice(chunk))?;
        Ok(out)
    }

    /// Reads the prebuilt slab sections into a query-ready
    /// [`FrozenHexastore`], dispatching on kind: raw `FROZ` columns are
    /// contiguous array reads, compressed `FRZC` payloads decode through
    /// [`crate::compress`] — both land in the same validated slabs.
    /// Errors if no slab section is present (check
    /// [`Reader::has_frozen`]) or the section is inconsistent.
    pub fn frozen(&mut self) -> Result<FrozenHexastore> {
        if self.sections.iter().any(|(t, _, _)| *t == TAG_FROZ) {
            self.frozen_raw()
        } else {
            self.frozen_compressed()
        }
    }

    /// Reads the raw `FROZ` section of any version: [`frozen_from_columns`]
    /// over owned copies of the columns [`Reader::frozen_columns`] locates,
    /// then [`check_frozen`].
    fn frozen_raw(&mut self) -> Result<FrozenHexastore> {
        let columns = self.frozen_columns()?;
        let store = frozen_from_columns(&columns, |at| Ok(self.bytes(at)?.into()))?;
        check_frozen(&store).map(|()| store)
    }

    /// Reads the compressed `FRZC` section: checksum-verified varint
    /// payload decoded into the same validated slabs as the raw path.
    fn frozen_compressed(&mut self) -> Result<FrozenHexastore> {
        use crate::compress::{
            decode_arena, decode_offsets, decode_sorted_run, fnv1a, get_uvarint, get_uvarint32,
        };
        let (section_end, section_len) = self.seek_section(TAG_FRZC)?;
        let len = checked_len(r_u64(&mut self.r)?, "triple")?;
        let payload_len = checked_len(r_u64(&mut self.r)?, "compressed payload byte")?;
        // Fixed prefix: n_triples(8) + payload_len(8) + checksum(4).
        if (payload_len as u64).checked_add(20).is_none_or(|total| total > section_len) {
            return corrupt("compressed payload exceeds section size");
        }
        let declared_sum = r_u32(&mut self.r)?;
        let mut payload = vec![0u8; payload_len];
        self.r.read_exact(&mut payload)?;
        self.check_section_end(section_end)?;
        // The checksum gate is what makes single-byte corruption a
        // deterministic rejection: varint streams are dense enough that
        // a flipped byte often still *parses* into a different-but-valid
        // slab, which structural validation alone cannot catch.
        if fnv1a(&payload) != declared_sum {
            return corrupt("compressed slab payload checksum mismatch");
        }
        let buf = payload.as_slice();
        let mut pos = 0usize;
        // Every list, item, header and vector entry costs at least one
        // payload byte, so bounding each count by the payload size caps
        // allocations before they happen — the varint analogue of the
        // raw path's `fits` checks.
        let bounded = |v: Option<u64>, what: &str| -> Result<usize> {
            let v = v.ok_or_else(|| Error::Corrupt(format!("truncated {what} count")))?;
            let v = checked_len(v, what)?;
            if v > payload_len {
                return Err(Error::Corrupt(format!("{what} count exceeds payload size")));
            }
            Ok(v)
        };
        let mut arenas = Vec::with_capacity(3);
        for _ in 0..3 {
            let n_lists = bounded(get_uvarint(buf, &mut pos), "arena list")?;
            let n_items = bounded(get_uvarint(buf, &mut pos), "arena item")?;
            match decode_arena(buf, &mut pos, n_lists, n_items) {
                Some(a) => arenas.push(a),
                None => return corrupt("compressed arena does not decode"),
            }
        }
        let arenas = arenas.try_into().expect("exactly three arenas read");
        let legacy = spells_out_derivables(self.version);
        let mut orderings = Vec::with_capacity(6);
        for kind in IndexKind::ALL {
            let h = bounded(get_uvarint(buf, &mut pos), "ordering header")?;
            let m = bounded(get_uvarint(buf, &mut pos), "ordering vector entry")?;
            let Some(offs) = decode_offsets(buf, &mut pos, h, m) else {
                return corrupt("ordering group lengths do not tile the vector count");
            };
            let mut keys = Vec::with_capacity(h);
            if decode_sorted_run(buf, &mut pos, h, &mut keys).is_none() {
                return corrupt("ordering header keys do not decode");
            }
            let mut k2 = Vec::with_capacity(m);
            for w in offs.windows(2) {
                if decode_sorted_run(buf, &mut pos, (w[1] - w[0]) as usize, &mut k2).is_none() {
                    return corrupt("ordering vector group does not decode");
                }
            }
            let refs = if legacy || kind.is_mirror() {
                let mut refs = Vec::with_capacity(m);
                for _ in 0..m {
                    let Some(l) = get_uvarint32(buf, &mut pos) else {
                        return corrupt("truncated ordering list reference");
                    };
                    refs.push(l);
                }
                Some(refs)
            } else {
                None
            };
            let k2: Vec<u32> = k2.iter().map(|id| id.0).collect();
            let refs = kept_refs(refs, kind)?;
            orderings.push(plain_ordering(&keys, &offs, &k2, refs.as_deref())?);
        }
        if pos != payload_len {
            return corrupt("compressed payload has trailing bytes");
        }
        let orderings = orderings.try_into().expect("exactly six orderings");
        let store = FrozenHexastore::from_raw_parts(orderings, arenas, len);
        check_frozen(&store).map(|()| store)
    }
}

/// A section's columns as [`Bytes`] from a source, the one difference
/// between the loaders: the eager reader reads each into an exact-sized
/// owned buffer, a mapping returns a window of itself ([`Bytes::shared`]).
/// A column of an older layout becomes the current one here.
struct Source<F> {
    /// Turns a file range into its bytes.
    read: F,
    /// True for a section written before offsets were coded (v13 and
    /// older), whose offsets and key columns take the encodings their
    /// sizes choose now.
    recode: bool,
}

impl<F: FnMut(Range<usize>) -> Result<Bytes>> Source<F> {
    fn bytes(&mut self, offset: usize, len: usize) -> Result<Bytes> {
        (self.read)(offset..offset + len)
    }

    /// A packed column, checked only as far as [`PackedColumn::new`] goes.
    fn packed(&mut self, col: Packed, what: &str) -> Result<PackedColumn> {
        let bytes = self.bytes(col.offset, col.bytes())?;
        PackedColumn::new(bytes, col.width, col.len)
            .map_err(|e| Error::Corrupt(format!("{what}: {e}")))
    }

    /// An integer column as a packed one: a packed column as it is, a
    /// `u32` one packed.
    fn ints(&mut self, ints: Ints, what: &str) -> Result<PackedColumn> {
        match ints {
            Ints::Packed(col) => self.packed(col, what),
            Ints::U32(col) => Ok(PackedColumn::from_values(&self.u32s(col)?)),
        }
    }

    /// The values of an integer column that is decoded, not kept: a packed
    /// image is checked canonical here, as no later check sees it.
    fn values(&mut self, ints: Ints, what: &str) -> Result<Vec<u32>> {
        let column = self.ints(ints, what)?;
        column.view().validate().map_err(|e| Error::Corrupt(format!("{what}: {e}")))?;
        Ok(column.values().collect())
    }

    /// A column of `u32`s.
    fn u32s(&mut self, col: Column) -> Result<Vec<u32>> {
        let bytes = self.bytes(col.offset, 4 * col.len)?;
        r_u32_run(&mut &bytes[..], col.len)
    }

    /// A level's windows as its cumulative offsets column, taken as it
    /// is; an older section's packed or `u32` column, and pre-v3 `(offset,
    /// length)` pairs made offsets if they tile, in the encoding their
    /// size chooses.
    fn windows(&mut self, windows: Windows, what: &str) -> Result<OffsetsColumn> {
        match windows {
            Windows::Offsets(Ints::Packed(col)) => self.offsets(Offsets::Packed(col), what),
            Windows::Offsets(Ints::U32(col)) => Ok(OffsetsColumn::from_values(&self.u32s(col)?)),
            Windows::EliasFano(window) => self.offsets(Offsets::EliasFano(window), what),
            Windows::Pairs(col) => offsets_from_pairs(&self.u32s(col)?)
                .map(|offs| OffsetsColumn::from_values(&offs))
                .ok_or_else(|| Error::Corrupt("spans do not tile their column".into())),
        }
    }

    /// A cumulative offsets column, packed or one Elias–Fano window,
    /// taken as it is; an older section's packed column, checked
    /// canonical, in the encoding its size chooses.
    fn offsets(&mut self, offs: Offsets, what: &str) -> Result<OffsetsColumn> {
        match offs {
            Offsets::Packed(col) if self.recode => {
                Ok(OffsetsColumn::from_values(&self.values(Ints::Packed(col), what)?))
            }
            Offsets::Packed(col) => Ok(OffsetsColumn::Packed(self.packed(col, what)?)),
            Offsets::EliasFano(OffsetsWindow { stream, selects, len }) => {
                let len = u32::try_from(len)
                    .map_err(|_| Error::Corrupt(format!("{what}: {len} values")))?;
                let stream = (self.bytes(stream.offset, stream.bytes())?, stream.len);
                let selects = self.packed(selects, what)?;
                Ok(OffsetsColumn::EliasFano(EfOffsets::unchecked(stream, selects, len)))
            }
        }
    }

    /// An arena of `items` items: its slot, run-ends and key columns taken
    /// as they are; a v4–v11 arena's slot and overflow columns checked as
    /// that layout was and rebuilt in the current one (a pre-v7 `u32` slot
    /// column packed first); or a pre-v4 arena's offset-addressed lists
    /// appended one by one.
    fn arena(&mut self, arena: ArenaColumns, items: usize) -> Result<FlatArena> {
        match arena {
            ArenaColumns::Runs { slots, ends, keys, len } => {
                let slots = self.packed(slots, "arena slot column")?;
                let ends = self.offsets(ends, "arena run-ends column")?;
                let keys = self.keys(keys, len, ends.view(), "arena run keys")?;
                Ok(FlatArena::unchecked(slots, ends, keys, items))
            }
            ArenaColumns::Slots { slots, over } => {
                let slots = match slots {
                    Ints::U32(col) => pack_u32_slots(&self.u32s(col)?),
                    Ints::Packed(col) => self.packed(col, "arena slot column")?,
                };
                let over = self.ints(over, "arena overflow column")?;
                arena_of_length_words(slots.view(), over.view())
                    .map_err(|why| Error::Corrupt(format!("arena columns: {why}")))
            }
            ArenaColumns::Items { windows, items } => {
                let offs: Vec<u32> =
                    self.windows(windows, "arena offsets column")?.values().collect();
                let items: Vec<Id> = self.u32s(items)?.into_iter().map(Id).collect();
                FlatArena::from_offsets(&items, &offs)
                    .ok_or_else(|| Error::Corrupt("arena columns do not hold sorted lists".into()))
            }
        }
    }

    /// A key column of `len` keys windowed by `offs`, packed or
    /// Elias–Fano coded, taken as it is; an older section's packed column
    /// whose sizes now choose Elias–Fano ([`recoded_keys`]) rebuilt coded.
    fn keys(
        &mut self,
        keys: VectorKeys,
        len: usize,
        offs: OffsetsView<'_>,
        what: &str,
    ) -> Result<KeyColumn> {
        Ok(match keys {
            VectorKeys::Ints(keys) if self.recode => {
                recoded_keys(self.ints(keys, what)?, offs, what).map_err(Error::Corrupt)?
            }
            VectorKeys::Ints(keys) => KeyColumn::Packed(self.ints(keys, what)?),
            VectorKeys::EliasFano(ef) => KeyColumn::EliasFano(self.elias_fano(ef, len, what)?),
        })
    }

    /// An Elias–Fano column of `len` keys, taken as it is.
    fn elias_fano(&mut self, ef: EfColumns, len: usize, what: &str) -> Result<EfColumn> {
        let len = u32::try_from(len).map_err(|_| Error::Corrupt(format!("{what}: {len} keys")))?;
        let (base, offs) = (self.packed(ef.base, what)?, self.offsets(ef.offs, what)?);
        let stream = (self.bytes(ef.stream.offset, ef.stream.bytes())?, ef.stream.len);
        let ranks = self.packed(ef.ranks, what)?;
        Ok(EfColumn::unchecked(base, offs, stream, ranks, len))
    }
}

/// A packed key column of a section written before offsets were coded,
/// windowed by `offs`, in the encoding its sizes choose now. Such a writer
/// sized an Elias–Fano column with its bit offsets packed, so it left
/// packed some columns that are smaller coded; one of those is rebuilt
/// coded, its image checked canonical and its windows checked to tile it
/// and ascend first, and any other is taken as it is. (An Elias–Fano
/// column it wrote is still the smaller: coding its bit offsets only
/// shrinks it.)
fn recoded_keys(
    column: PackedColumn,
    offs: OffsetsView<'_>,
    what: &str,
) -> std::result::Result<KeyColumn, String> {
    let v = column.view();
    let tiling =
        || format!("the offsets do not tile the {} {what} into ascending windows", v.len());
    let mut size = KeySize::default();
    let mut end = 0;
    for w in windows_of(offs) {
        let n = w.len();
        if w.start != end || n == 0 || w.end > v.len() {
            return Err(tiling());
        }
        let (first, last) = (v.get(w.start), v.get(w.end - 1));
        if n > 1 && first >= last {
            return Err(tiling());
        }
        size.add(n, Id(first), Id(last));
        end = w.end;
    }
    if !size.elias_fano() {
        return Ok(KeyColumn::Packed(column));
    }
    v.validate().map_err(|e| format!("{what}: {e}"))?;
    let keys: Vec<u32> = v.values().collect();
    let ascends = windows_of(offs).all(|w| keys[w].windows(2).all(|p| p[0] < p[1]));
    if end != keys.len() || !ascends {
        return Err(tiling());
    }
    Ok(KeyColumn::of_windows(&keys, offs))
}

/// The arena a v4–v11 `FROZ` section lays down — every list that is not
/// a singleton in its slot a length word and its ids in an overflow
/// column, the slot the position of that word — checked as that layout
/// was and rebuilt in the current one: both images end in zero bits, the
/// runs tile the overflow column in slot order, each a non-empty strictly
/// ascending run that does not fit a slot, and both columns are as wide
/// as their values need. What this refuses is what the older layout's
/// reader refused.
fn arena_of_length_words(
    slots: PackedView<'_>,
    over: PackedView<'_>,
) -> std::result::Result<FlatArena, String> {
    slots.validate_tail().map_err(|e| format!("slot column: {e}"))?;
    over.validate_tail().map_err(|e| format!("overflow column: {e}"))?;
    let flag = if slots.width() == 0 { 0 } else { 1 << (slots.width() - 1) };
    let (mut next, mut max_value, mut max_word) = (0usize, 0u32, 0u32);
    let (mut items, mut offs) = (Vec::new(), vec![0u32]);
    for (list, slot) in slots.values().enumerate() {
        if slot & flag == 0 {
            items.push(Id(slot));
        } else {
            let at = (slot & !flag) as usize;
            if at != next {
                return Err(format!("list {list} names overflow position {at}, off its runs"));
            }
            let overruns = || format!("list {list}'s overflow run overruns the column");
            let len = if next < over.len() { over.get(next) as usize } else { Err(overruns())? };
            let end = (next + 1).checked_add(len).filter(|&end| end <= over.len());
            let end = end.ok_or_else(overruns)?;
            let run: Vec<u32> = over.iter(next + 1..end).collect();
            if len == 1 && run[0] <= MAX_IN_SLOT {
                return Err(format!("list {list} is an overflow run of one id that fits its slot"));
            }
            if run.is_empty() || !run.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("list {list} is not a non-empty, strictly ascending run"));
            }
            max_word = max_word.max(u32::try_from(len).unwrap_or(u32::MAX)).max(run[len - 1]);
            items.extend(run.into_iter().map(Id));
            next = end;
        }
        max_value = max_value.max(slot & !flag);
        offs.push(u32::try_from(items.len()).map_err(|_| "2^32 arena items".to_string())?);
    }
    if next != over.len() {
        return Err(format!("{} overflow words follow the last run", over.len() - next));
    }
    let needed = if slots.is_empty() { 0 } else { 1 + width_of(max_value.min(MAX_IN_SLOT)) };
    if slots.width() != needed {
        return Err(format!(
            "slot column is {} bits wide where its slots need {needed}",
            slots.width()
        ));
    }
    if over.width() != width_of(max_word) {
        return Err("overflow column is wider than its largest word needs".into());
    }
    FlatArena::from_offsets(&items, &offs).ok_or_else(|| "lists do not tile".to_string())
}

/// The store whose `FROZ` columns `columns` locates
/// ([`Reader::frozen_columns`]), every column's bytes taken from `source`,
/// which turns a file range into them. Both loaders build their store
/// here and differ only in the source: [`load_frozen`] reads each column
/// into an exact-sized owned buffer and then checks the store; `hex-disk`
/// passes windows of its mapping ([`Bytes::shared`]), so nothing is read
/// or rebuilt, rank directories included, and opening touches only the
/// section's count fields while queries page in exactly the columns they
/// walk. Given the same file, the two stores are equal.
///
/// A section of an older version becomes the current layout on the way,
/// as the [module docs](self) list. That reads and rebuilds the columns it
/// converts, so only a v13 or v14 section is taken without reading a
/// column; `hex-disk` maps v10 to v14 files only, reading the arenas of a v10 or
/// v11 file and the list references of a v10 to v12 one.
///
/// # Trust model
///
/// What is checked here for a v13 or v14 section touches no column: `source`
/// refuses a column it cannot give. The columns' data-level
/// invariants — canonical packed images, sorted keys, offsets tiling,
/// Elias–Fano windows that decode to their keys, rank samples that agree
/// with their bits, list references in range, arenas that hold one item
/// per triple, pairs that agree, ids within the dictionary — are not
/// checked here: walking them would read the whole file. The eager reader
/// checks every one of them after building, whatever the version; over a
/// mapping, every read clamps each window, run and select to its column
/// instead, so a corrupt file gives wrong answers (a short window, an
/// absent header), never undefined behavior, a panic or an unbounded
/// scan. Files from untrusted writers go through [`load_frozen`], which
/// validates fully.
pub fn frozen_from_columns(
    columns: &FrozenColumns,
    source: impl FnMut(Range<usize>) -> Result<Bytes>,
) -> Result<FrozenHexastore> {
    let mut source = Source { read: source, recode: columns.version < CODED_OFFSETS };
    let mut arenas = Vec::with_capacity(3);
    for arena in columns.arenas {
        arenas.push(source.arena(arena, columns.triples)?);
    }
    let mut orderings = Vec::with_capacity(6);
    for (kind, ix) in IndexKind::ALL.into_iter().zip(columns.orderings) {
        let offs = source.windows(ix.windows, "ordering offsets column")?;
        let plain = ix.lists.and_then(ListRefs::plain);
        let plain = plain.map(|refs| source.values(refs, "ordering list column")).transpose()?;
        let plain = kept_refs(plain, kind)?;
        let keys = match ix.keys {
            // Plain keys (before v9): checked ascending, then encoded.
            Headers::U32(keys) => {
                let VectorKeys::Ints(k2) = ix.k2 else {
                    return corrupt("Elias–Fano vector keys under u32 header keys");
                };
                let keys: Vec<Id> = source.u32s(keys)?.into_iter().map(Id).collect();
                let k2 = source.values(k2, "ordering vector column")?;
                let offs: Vec<u32> = offs.values().collect();
                orderings.push(plain_ordering(&keys, &offs, &k2, plain.as_deref())?);
                continue;
            }
            Headers::Bitmap { bits, ranks, count } => HeaderColumn::Bitmap(RankBitmap::unchecked(
                source.bytes(bits.offset, bits.bytes())?,
                bits.len,
                source.packed(ranks, "ordering header rank directory")?,
                count,
            )),
            Headers::EliasFano { ef, count } => {
                HeaderColumn::EliasFano(source.elias_fano(ef, count, "ordering header window")?)
            }
        };
        // A key a leaf, and a reference a leaf.
        let k2 = source.keys(ix.k2, ix.vector, offs.view(), "ordering vector keys")?;
        let lists = match (ix.lists, plain) {
            (Some(ListRefs::Windows(refs)), _) => {
                Some(source.keys(refs, ix.vector, offs.view(), "ordering list references")?)
            }
            // References before v13, checked as that layout was, become the
            // windowed column the current one keeps.
            (_, Some(refs)) => Some(
                windowed(&refs, offs.view())
                    .ok_or_else(|| Error::Corrupt("ordering columns are inconsistent".into()))?,
            ),
            (_, None) => None,
        };
        orderings.push(FrozenIndex { keys, offs, k2, lists });
    }
    Ok(FrozenHexastore::from_raw_parts(
        orderings.try_into().expect("exactly six orderings"),
        arenas.try_into().expect("exactly three arenas"),
        columns.triples,
    ))
}

/// An ordering of the plain header and vector keys a pre-v9 `FROZ`
/// section or a `FRZC` payload holds ([`FrozenIndex::from_plain_parts`]).
fn plain_ordering(
    keys: &[Id],
    offs: &[u32],
    k2: &[u32],
    lists: Option<&[u32]>,
) -> Result<FrozenIndex> {
    FrozenIndex::from_plain_parts(keys, offs, k2, lists)
        .ok_or_else(|| Error::Corrupt("ordering columns are inconsistent".into()))
}

/// The dictionary whose `DICT` columns `front` and `columns` locate
/// ([`Reader::dict_columns`]), each column's
/// bytes from `source` as for [`frozen_from_columns`]. A v11 section's
/// frozen tier and a v10 or v11 section's five delta columns are handed
/// to [`Dictionary::from_tiers`] as they are, a v5 to v9 section's `u32`
/// columns packed first, with an empty frozen tier before v11; it
/// validates the frozen tier in one sequential pass (block offsets,
/// varints inside their blocks, shared prefixes, strictly ascending keys
/// of real terms) and the delta (each packed column canonical, offset
/// tables, heads, the one representation each term has, distinctness,
/// which corruption merging two terms would break) in one hash pass per
/// table, constructing no `Term` and building no hash table for the
/// frozen tier. An older section's terms are interned again in id order:
/// the ids stay the same, a term seen twice is `Corrupt`. A mapping
/// mutated after validation degrades to missed lookups and `None`
/// decodes, never a panic.
pub fn dictionary_from_columns(
    front: Option<FrontColumns>,
    columns: DictColumns,
    source: impl FnMut(Range<usize>) -> Result<Bytes>,
) -> Result<Dictionary> {
    let mut source = Source { read: source, recode: false };
    let front = match front {
        Some(FrontColumns { block, terms, offsets, bytes, ids, ranks }) => FrontImage {
            block,
            len: terms,
            offsets: source.packed(offsets, "dictionary block offset column")?,
            bytes: source.bytes(bytes.offset, bytes.len)?,
            ids: source.packed(ids, "dictionary key id column")?,
            ranks: source.packed(ranks, "dictionary key rank column")?,
        },
        None => FrontImage::default(),
    };
    match columns {
        DictColumns::Prefixed { heads, ends, arena, prefix_ends, prefixes } => {
            let image = ArenaImage {
                heads: source.ints(heads, "dictionary head column")?,
                ends: source.ints(ends, "dictionary term offset table")?,
                arena: source.bytes(arena.offset, arena.len)?,
                prefix_ends: source.ints(prefix_ends, "dictionary prefix offset table")?,
                prefixes: source.bytes(prefixes.offset, prefixes.len)?,
            };
            Dictionary::from_tiers(front, image).map_err(|e| Error::Corrupt(e.to_string()))
        }
        DictColumns::Pieces { kinds, ends, arena } => {
            let ends = source.u32s(ends)?;
            let (kinds, arena) =
                (source.bytes(kinds.offset, kinds.len)?, source.bytes(arena.offset, arena.len)?);
            reinterned(&kinds, &ends, &arena)
        }
    }
}

/// Checks in one pass over the three arenas' columns, `O(lists + run
/// ids)`, that they are what a writer lays down
/// ([`ArenaView::validate`](crate::slab::ArenaView::validate)) and together hold one item per
/// triple the store declares. [`load_frozen`] runs it on every `FROZ`
/// store it reads; `hex-disk`'s `verify` runs it on a mapped one.
pub fn check_arenas(store: &FrozenHexastore) -> Result<()> {
    for arena in store.arenas() {
        let items =
            arena.view().validate().map_err(|e| Error::Corrupt(format!("arena columns: {e}")))?;
        if items != store.len() {
            return corrupt("declared triple count disagrees with slab columns");
        }
    }
    Ok(())
}

/// The eager reader's data-level checks of a store it built, which a
/// mapping leaves to its clamped reads, and the one check every eager
/// load of slabs ends in: a `FROZ` section of any version
/// ([`frozen_from_columns`]) or a decoded `FRZC` payload. The slot
/// columns' images, [`check_arenas`], [`HeaderColumn::check`], then each
/// index pair, primary first ([`check_ordering`]): every coded column is
/// decoded once.
fn check_frozen(store: &FrozenHexastore) -> Result<()> {
    let arenas = store.arenas();
    for arena in arenas {
        let slots = arena.view().slots.validate_tail();
        slots.map_err(|e| Error::Corrupt(format!("arena slot column: {e}")))?;
    }
    check_arenas(store)?;
    let orderings = store.orderings();
    for ix in orderings {
        HeaderColumn::check(ix.keys.view(), "ordering header keys").map_err(Error::Corrupt)?;
    }
    for (primary, mirror, arena) in PAIRS {
        let lists = arenas[arena].list_count();
        let mut owners = Vec::with_capacity(lists);
        check_ordering(orderings[primary], lists, Leaves::Primary(&mut owners))?;
        let leaves = Leaves::Mirror { owners: &owners, seen: vec![false; lists] };
        check_ordering(orderings[mirror], lists, leaves)?;
    }
    Ok(())
}

/// Each index pair's primary ordering, mirror ordering and arena, by
/// their places in the canonical walks.
const PAIRS: [(usize, usize, usize); 3] = [(0, 2, 0), (1, 4, 1), (3, 5, 2)];

/// What an ordering's leaves owe the other ordering of its pair, checked
/// as [`check_ordering`] reads them.
enum Leaves<'p> {
    /// A primary's: leaf `i` is list `i`, whose `(k1, k2)` is recorded.
    Primary(&'p mut Vec<(Id, Id)>),
    /// A mirror's: each leaf references a list of the arena whose primary
    /// `(k1, k2)` is its own reversed, and each list once.
    Mirror {
        /// Each list's primary `(k1, k2)`.
        owners: &'p [(Id, Id)],
        /// The lists referenced so far.
        seen: Vec<bool>,
    },
}

/// Checks one ordering over an arena of `lists` lists in one pass over its
/// windows: the offsets tile the vector keys into one non-empty window per
/// header key, and are the canonical column of their values; each window
/// of vector keys and (a mirror's) list references is decoded once and
/// checked ([`KeyCheck`]), and its leaves against the pair ([`Leaves`]):
/// every reference is in range, and primary and mirror hold the same
/// `(k1, k2) → list` associations, each exactly once. A corrupt column is
/// refused by name.
fn check_ordering(ix: &FrozenIndex, lists: usize, mut pair: Leaves<'_>) -> Result<()> {
    let inconsistent = || Error::Corrupt("ordering columns are inconsistent".into());
    let disagree = || Error::Corrupt("index pair orderings disagree".into());
    let mirror = matches!(pair, Leaves::Mirror { .. });
    if ix.lists.is_some() != mirror {
        return Err(disagree());
    }
    let (keys, leaves) = (ix.keys.view(), ix.k2.len());
    let mut offs = OffsetsCheck::new(ix.offs.view());
    if ix.offs.len() != keys.len() + 1 || offs.next() != Some(0) {
        return Err(inconsistent());
    }
    let mut k2 = KeyCheck::new(ix.k2.view(), "ordering vector keys").map_err(Error::Corrupt)?;
    let refs = ix.lists.as_ref().map(|refs| KeyCheck::new(refs.view(), "ordering list references"));
    let mut refs = refs.transpose().map_err(Error::Corrupt)?;
    let mut start = 0;
    for (h, k1) in keys.keys().enumerate() {
        let end = offs.next().map(|end| end as usize).filter(|&end| end > start && end <= leaves);
        let end = end.ok_or_else(inconsistent)?;
        let window = k2.window(h, start..end).map_err(Error::Corrupt)?;
        match (&mut pair, &mut refs) {
            (Leaves::Primary(owners), _) => owners.extend(window.iter().map(|&k| (k1, Id(k)))),
            (Leaves::Mirror { owners, seen }, Some(refs)) => {
                let named = refs.window(h, start..end).map_err(Error::Corrupt)?;
                for (&k, &list) in window.iter().zip(named) {
                    let list = list as usize;
                    if list >= lists {
                        return Err(inconsistent());
                    }
                    if owners.get(list) != Some(&(Id(k), k1)) || seen[list] {
                        return Err(disagree());
                    }
                    seen[list] = true;
                }
            }
            (Leaves::Mirror { .. }, None) => unreachable!("a mirror keeps references"),
        }
        start = end;
    }
    if start != leaves {
        return Err(inconsistent());
    }
    offs.finish("ordering offsets column").map_err(Error::Corrupt)?;
    k2.finish(keys.len()).map_err(Error::Corrupt)?;
    if let Some(refs) = refs {
        refs.finish(keys.len()).map_err(Error::Corrupt)?;
    }
    if leaves != lists {
        return Err(if mirror { disagree() } else { inconsistent() });
    }
    Ok(())
}

/// The dictionary a v1–v4 `DICT` section holds — one kind byte per
/// term, every term one or two whole pieces of one arena — with its terms
/// interned again in id order. The ids stay the same, and the columns are
/// what encoding those terms afresh makes, so a re-save writes the
/// section a fresh encode would. A term seen twice is `Corrupt`, as are
/// offsets that do not cut the arena into the pieces the kinds need.
fn reinterned(kinds: &[u8], ends: &[u32], arena: &[u8]) -> Result<Dictionary> {
    let bad = |why: &str| Error::Corrupt(format!("dictionary section: {why}"));
    let text = std::str::from_utf8(arena).map_err(|_| bad("string arena is not UTF-8"))?;
    let mut ends = ends.iter().map(|&e| e as usize);
    let mut start = 0;
    let mut piece = || -> Result<&str> {
        let end = ends.next().ok_or_else(|| bad("fewer string pieces than the kinds need"))?;
        let piece =
            text.get(start..end).ok_or_else(|| bad("piece offsets do not cut the arena"))?;
        start = end;
        Ok(piece)
    };
    let mut dict = Dictionary::with_capacity(kinds.len());
    for &k in kinds {
        let kind = TermKind::from_byte(k).ok_or_else(|| bad(&format!("unknown term kind {k}")))?;
        let first = piece()?;
        let second = if kind.pieces() == 2 { Some(piece()?) } else { None };
        let term = TermRef::from_pieces(kind, first, second)
            .ok_or_else(|| bad("typed literal carries the implicit xsd:string datatype"))?;
        let fresh = dict.len();
        if dict.encode(term).index() != fresh {
            return Err(bad("duplicate term"));
        }
    }
    if ends.next().is_some() || start != text.len() {
        return Err(bad("piece offsets do not cover the arena"));
    }
    dict.shrink_to_fit();
    Ok(dict)
}

/// The cumulative offsets column of a pre-v3 `(offset, length)` span
/// table, flattened as the writer laid it out. `None` unless the spans
/// tile: each starts where the previous one ended, the first at 0.
fn offsets_from_pairs(pairs: &[u32]) -> Option<Vec<u32>> {
    let mut offs = Vec::with_capacity(pairs.len() / 2 + 1);
    let mut end = 0u32;
    offs.push(end);
    for pair in pairs.chunks_exact(2) {
        if pair[0] != end {
            return None;
        }
        end = end.checked_add(pair[1])?;
        offs.push(end);
    }
    Some(offs)
}

/// What ordering `kind` keeps of the list references read for it: a
/// mirror keeps them all; a primary keeps none — v3 stores none for it,
/// and the ones a pre-v3 file stored must be the identity.
fn kept_refs(read: Option<Vec<u32>>, kind: IndexKind) -> Result<Option<Vec<u32>>> {
    if kind.is_mirror() {
        return Ok(read);
    }
    if read.is_some_and(|refs| refs.iter().enumerate().any(|(i, &l)| l as usize != i)) {
        return corrupt("a primary ordering's list references are not the identity");
    }
    Ok(None)
}

/// Encodes a store's slabs as the `FRZC` varint payload — the writer
/// half of [`Reader::frozen_compressed`].
fn encode_frozen_payload(store: &FrozenHexastore) -> Vec<u8> {
    use crate::compress::{encode_arena, encode_ascending, encode_offsets, put_uvarint};
    let mut p = Vec::new();
    for arena in store.arenas() {
        put_uvarint(&mut p, arena.list_count() as u64);
        put_uvarint(&mut p, arena.total_items() as u64);
        encode_arena(&mut p, arena);
    }
    for ix in store.orderings() {
        put_uvarint(&mut p, ix.keys.len() as u64);
        put_uvarint(&mut p, ix.k2.len() as u64);
        encode_offsets(&mut p, ix.offs.values());
        encode_ascending(&mut p, ix.keys.view().keys().map(|k| k.0));
        let k2 = ix.k2.view();
        for (_, h, leaves) in ix.groups() {
            encode_ascending(&mut p, k2.iter(h, leaves));
        }
        if let Some(lists) = &ix.lists {
            let refs = lists.view();
            for (_, h, leaves) in ix.groups() {
                refs.iter(h, leaves).for_each(|l| put_uvarint(&mut p, u64::from(l)));
            }
        }
    }
    p
}

/// Zero bytes from file offset `pos` to the next multiple of 8.
fn padding_to_8(pos: u64) -> usize {
    (pos.wrapping_neg() % 8) as usize
}

fn tag_name(tag: [u8; 4]) -> String {
    String::from_utf8_lossy(&tag).into_owned()
}

// ---------------------------------------------------------------------
// Whole-file convenience entry points.
// ---------------------------------------------------------------------

/// Saves a dictionary and store as dictionary + triple columns (compact;
/// restore rebuilds indices through the bulk loader).
pub fn save(path: impl AsRef<Path>, dict: &Dictionary, store: &dyn TripleStore) -> Result<()> {
    let mut w = Writer::new(BufWriter::new(File::create(path)?))?;
    w.dictionary(dict)?;
    w.triples(store.len() as u64, store.iter_matching(IdPattern::ALL))?;
    w.finish()?;
    Ok(())
}

/// Saves a dictionary and frozen store as prebuilt slab sections, so
/// [`load_frozen`] opens query-ready without rebuilding indices. No
/// `TRPL` column is written: the slabs' spo ordering is the triple
/// column, and [`Reader::triples`] reads it from there.
pub fn save_frozen(
    path: impl AsRef<Path>,
    dict: &Dictionary,
    store: &FrozenHexastore,
) -> Result<()> {
    save_frozen_with(path, dict, store, Compression::None)
}

/// [`save_frozen`] with an explicit [`Compression`] choice for the slab
/// sections. [`Compression::VarintDelta`] trades open-time decoding for
/// a substantially smaller file; [`load_frozen`] opens either
/// transparently.
///
/// ```no_run
/// use hexastore::hexsnap::{load_frozen, save_frozen_with, Compression};
/// use hexastore::{GraphStore, TripleStore};
///
/// let mut g = GraphStore::new();
/// g.load_ntriples("<http://x/s> <http://x/p> <http://x/o> .").unwrap();
/// let frozen = g.store().freeze();
/// save_frozen_with("graph.hexsnap", g.dict(), &frozen, Compression::VarintDelta).unwrap();
/// let (_, back) = load_frozen("graph.hexsnap").unwrap();
/// assert_eq!(back.len(), frozen.len());
/// ```
pub fn save_frozen_with(
    path: impl AsRef<Path>,
    dict: &Dictionary,
    store: &FrozenHexastore,
    compression: Compression,
) -> Result<()> {
    let mut w = Writer::new(BufWriter::new(File::create(path)?))?;
    w.dictionary(dict)?;
    w.frozen_with(store, compression)?;
    w.finish()?;
    Ok(())
}

/// Loads a snapshot into a writable [`GraphStore`]: [`load_frozen`], its
/// store wrapped by [`FrozenHexastore::thaw`].
pub fn load(path: impl AsRef<Path>) -> Result<GraphStore> {
    let (dict, store) = load_frozen(path)?;
    Ok(GraphStore::from_parts(dict, store.thaw()))
}

/// Loads a snapshot into a query-ready [`FrozenHexastore`]: a direct
/// slab read when the file carries a `FROZ` or `FRZC` section, otherwise
/// a frozen bulk build from the triple column.
///
/// The slabs are validated structurally (offsets tiling, sortedness,
/// pair consistency, ids within the dictionary). A pre-v3 file's `TRPL`
/// column beside its slabs is ignored, as it always was beyond its
/// count: the slabs are what is opened.
pub fn load_frozen(path: impl AsRef<Path>) -> Result<(Dictionary, FrozenHexastore)> {
    let mut r = Reader::new(BufReader::new(File::open(path)?))?;
    let dict = r.dictionary()?;
    let store = if r.has_frozen() { r.frozen()? } else { crate::bulk::build_frozen(r.triples()?) };
    // Without this, a corrupt id would surface later as a panic inside
    // string-level decoding instead of an open-time error.
    if store.max_id().is_some_and(|m| m.index() >= dict.len()) {
        return corrupt("triple ids reference terms beyond the dictionary");
    }
    Ok((dict, store))
}

// ---------------------------------------------------------------------
// Snapshot generations (live write path).
// ---------------------------------------------------------------------

/// File-name prefix of snapshot generations in a live store directory.
const GENERATION_PREFIX: &str = "gen-";
/// File-name suffix of snapshot generations in a live store directory.
const GENERATION_SUFFIX: &str = ".hexsnap";

/// The snapshot path for generation `n` inside a live store directory:
/// `gen-NNNNNN.hexsnap` (zero-padded so lexical order is numeric order).
pub fn generation_path(dir: impl AsRef<Path>, generation: u64) -> std::path::PathBuf {
    dir.as_ref().join(format!("{GENERATION_PREFIX}{generation:06}{GENERATION_SUFFIX}"))
}

/// Parses a directory-entry file name as a snapshot generation number.
fn parse_generation(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(GENERATION_PREFIX)?.strip_suffix(GENERATION_SUFFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every snapshot generation present in a live store directory, in no
/// particular order. Non-generation files (the WAL, temp files) are
/// ignored; a missing directory reads as empty.
pub(crate) fn generations(dir: impl AsRef<Path>) -> Result<Vec<(u64, std::path::PathBuf)>> {
    let entries = match std::fs::read_dir(dir.as_ref()) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(gen) = name.to_str().and_then(parse_generation) {
            found.push((gen, entry.path()));
        }
    }
    Ok(found)
}

/// Finds the newest snapshot generation in a live store directory, if
/// any — see [`generation_path`] for the naming scheme.
pub fn newest_generation(dir: impl AsRef<Path>) -> Result<Option<(u64, std::path::PathBuf)>> {
    Ok(generations(dir)?.into_iter().max_by_key(|&(gen, _)| gen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;
    use std::io::Cursor;

    fn sample_dict_and_store() -> (Dictionary, FrozenHexastore) {
        let mut dict = Dictionary::new();
        let mut triples = Vec::new();
        for i in 0..40u32 {
            let s = dict.encode(&Term::iri(format!("http://x/s{}", i % 7)));
            let p = dict.encode(&Term::iri(format!("http://x/p{}", i % 3)));
            let o = if i % 4 == 0 {
                dict.encode(&Term::literal(format!("plain {i}\nline")))
            } else if i % 4 == 1 {
                dict.encode(&Term::lang_literal(format!("chat{i}"), "fr"))
            } else if i % 4 == 2 {
                dict.encode(&Term::typed_literal(
                    format!("{i}"),
                    "http://www.w3.org/2001/XMLSchema#integer",
                ))
            } else {
                dict.encode(&Term::blank(format!("b{i}")))
            };
            triples.push(IdTriple::new(s, p, o));
        }
        (dict, FrozenHexastore::from_triples(triples))
    }

    fn snapshot_bytes(frozen_section: bool) -> Vec<u8> {
        let (dict, store) = sample_dict_and_store();
        let mut w = Writer::new(Cursor::new(Vec::new())).unwrap();
        w.dictionary(&dict).unwrap();
        w.triples(store.len() as u64, store.iter_matching(IdPattern::ALL)).unwrap();
        if frozen_section {
            w.frozen(&store).unwrap();
        }
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn roundtrip_preserves_dictionary_and_triples() {
        let (dict, store) = sample_dict_and_store();
        let bytes = snapshot_bytes(false);
        let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
        assert!(!r.has_frozen());
        let dict2 = r.dictionary().unwrap();
        assert_eq!(dict2.len(), dict.len());
        for (id, term) in dict.iter() {
            assert_eq!(dict2.decode(id).as_ref(), Some(&term), "term {id:?}");
            assert_eq!(dict2.id_of(&term), Some(id));
        }
        let triples = r.triples().unwrap();
        assert_eq!(triples, store.matching(IdPattern::ALL));
    }

    #[test]
    fn compressed_section_roundtrips_and_shrinks() {
        let (dict, frozen) = sample_dict_and_store();
        let mut raw = Writer::new(Cursor::new(Vec::new())).unwrap();
        raw.dictionary(&dict).unwrap();
        raw.frozen(&frozen).unwrap();
        let raw_bytes = raw.finish().unwrap().into_inner();
        let mut compact = Writer::new(Cursor::new(Vec::new())).unwrap();
        compact.dictionary(&dict).unwrap();
        compact.frozen_with(&frozen, Compression::VarintDelta).unwrap();
        let bytes = compact.finish().unwrap().into_inner();
        assert!(bytes.len() < raw_bytes.len(), "{} !< {}", bytes.len(), raw_bytes.len());
        let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
        assert!(r.has_frozen());
        assert_eq!(r.frozen_section_extent(), None, "FRZC has no mappable extent");
        assert_eq!(r.frozen().unwrap(), frozen);
    }

    #[test]
    fn compressed_payload_byte_flips_are_rejected() {
        let (_, store) = sample_dict_and_store();
        let mut w = Writer::new(Cursor::new(Vec::new())).unwrap();
        w.frozen_with(&store, Compression::VarintDelta).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        // The FRZC section is the only one: payload starts 20 bytes past
        // the section start (12-byte header + n_triples + payload_len +
        // checksum). Flip every payload byte in turn.
        let payload_start = 12 + 20;
        let table_pos =
            u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap())
                as usize;
        for i in payload_start..table_pos {
            let mut copy = bytes.clone();
            copy[i] ^= 0x20;
            let got = Reader::new(Cursor::new(&copy)).and_then(|mut r| r.frozen());
            assert!(
                matches!(got, Err(Error::Corrupt(_))),
                "flipped payload byte {i} must be rejected"
            );
        }
    }

    /// The bytes of a file's section `tag`.
    fn section(file: &[u8], tag: [u8; 4]) -> &[u8] {
        let (off, len) = Reader::new(Cursor::new(file)).unwrap().extent(tag).unwrap();
        &file[off as usize..(off + len) as usize]
    }

    /// A committed `tests/data/` file, its slabs and slab section length, and its re-save.
    fn with_resave(name: &str) -> (Vec<u8>, FrozenHexastore, u64, Vec<u8>) {
        let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
        let file = std::fs::read(path).unwrap();
        let mut r = Reader::new(Cursor::new(&file)).unwrap();
        let raw = r.frozen_section_extent().is_some();
        let (_, slab_len) = r.extent(if raw { TAG_FROZ } else { TAG_FRZC }).unwrap();
        let frozen = r.frozen().unwrap();
        let mut w = Writer::new(Cursor::new(Vec::new())).unwrap();
        w.dictionary(&r.dictionary().unwrap()).unwrap();
        w.frozen_with(&frozen, if raw { Compression::None } else { Compression::VarintDelta })
            .unwrap();
        (file, frozen, slab_len, w.finish().unwrap().into_inner())
    }

    #[test]
    fn older_versions_spell_out_what_v3_derives() {
        // The same store under each version: v2 slab sections (raw and
        // compressed) are strictly larger than v3's and read back equal.
        for frzc in ["", "_frzc"] {
            let (_, from_v2, v2_len, _) = with_resave(&format!("v2_small{frzc}.hexsnap"));
            let (v3, from_v3, v3_len, resaved) = with_resave(&format!("v3_small{frzc}.hexsnap"));
            assert!(v3_len < v2_len, "{frzc}: {v3_len} !< {v2_len}");
            // FRZC encodes lists, not arena columns: its bytes are v3's.
            assert!(frzc.is_empty() || section(&resaved, TAG_FRZC) == section(&v3, TAG_FRZC));
            assert_eq!(from_v2, from_v3, "{frzc}");
            assert_eq!(Reader::new(Cursor::new(&resaved)).unwrap().frozen().unwrap(), from_v3);
        }
    }

    #[test]
    fn a_v4_arena_costs_a_word_less_per_singleton_and_a_word_more_per_longer_list() {
        // The break-even rule, on the bytes: against v3's offsets column,
        // a slot arena saves four bytes per singleton list and pays four
        // per longer one (its length word); the overflow count takes the
        // place of the closing offset. (The committed v4 file of the same
        // graph; v7 packs the slots, v8 the overflow words.)
        let (v3, frozen, _, _) = with_resave("v3_small.hexsnap");
        let (v4, ..) = with_resave("v4_small.hexsnap");
        let arena_bytes = |file: &[u8]| -> u64 {
            let columns = Reader::new(Cursor::new(file)).unwrap().frozen_columns().unwrap();
            let words = columns.arenas.iter().map(|arena| match *arena {
                ArenaColumns::Slots { slots: Ints::U32(slots), over: Ints::U32(over) } => {
                    1 + slots.len + over.len
                }
                ArenaColumns::Items { windows: Windows::Offsets(Ints::U32(offs)), items } => {
                    offs.len + items.len
                }
                _ => unreachable!("a v3 or later arena"),
            });
            4 * words.sum::<usize>() as u64
        };
        let (v3_len, v4_len) = (arena_bytes(&v3), arena_bytes(&v4));
        // The lists of the three arenas: one per (s, p), (s, o), (p, o).
        let mut lens = std::collections::BTreeMap::<_, u64>::new();
        for t in frozen.matching(IdPattern::ALL) {
            for pair in [(0, t.s, t.p), (1, t.s, t.o), (2, t.p, t.o)] {
                *lens.entry(pair).or_default() += 1;
            }
        }
        let singletons = lens.values().filter(|&&n| n == 1).count() as u64;
        let longer = lens.len() as u64 - singletons;
        assert_eq!((singletons, longer), (12, 3));
        assert_eq!(v3_len - v4_len, 4 * (singletons - longer));
    }

    #[test]
    fn legacy_spans_that_do_not_tile_are_rejected() {
        assert_eq!(offsets_from_pairs(&[]), Some(vec![0]));
        assert_eq!(offsets_from_pairs(&[0, 2, 2, 1]), Some(vec![0, 2, 3]));
        assert_eq!(offsets_from_pairs(&[1, 2]), None, "does not start at 0");
        assert_eq!(offsets_from_pairs(&[0, 2, 3, 1]), None, "gap");
        assert_eq!(offsets_from_pairs(&[0, 2, 1, 1]), None, "overlap");
        assert_eq!(offsets_from_pairs(&[0, u32::MAX, u32::MAX, 1]), None, "overflow");
        // Primary references other than the identity are corrupt; a
        // mirror's are kept as read.
        let refs = |values: &[u32]| Some(values.to_vec());
        assert!(matches!(kept_refs(refs(&[0, 1, 2]), IndexKind::Spo), Ok(None)));
        assert!(matches!(kept_refs(None, IndexKind::Pos), Ok(None)));
        assert!(matches!(kept_refs(refs(&[0, 2, 1]), IndexKind::Sop), Err(Error::Corrupt(_))));
        assert_eq!(kept_refs(refs(&[1, 0]), IndexKind::Pso).unwrap(), refs(&[1, 0]));
    }

    #[test]
    fn frozen_section_is_four_byte_aligned() {
        // Eight-byte aligned since v6, and so is every packed column.
        let bytes = snapshot_bytes(true);
        let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.version(), VERSION);
        let (off, _) = r.frozen_section_extent().expect("raw FROZ section present");
        assert_eq!(off % 8, 0, "FROZ section must start 8-byte aligned");
        let columns = r.frozen_columns().unwrap();
        for ix in columns.orderings {
            let offs = match ix.windows {
                Windows::Offsets(offs) => Some(offs),
                // One Elias–Fano window: its stream and directory.
                Windows::EliasFano(window) => {
                    assert_eq!(window.stream.offset % 8, 0, "{window:?}");
                    assert_eq!(window.selects.offset, window.stream.offset + window.stream.bytes());
                    None
                }
                Windows::Pairs(_) => panic!("v3 or later windows"),
            };
            let VectorKeys::Ints(k2) = ix.k2 else { panic!("the sample keeps packed keys") };
            let refs = ix.lists.map(|refs| match refs {
                ListRefs::Windows(VectorKeys::Ints(refs)) => refs,
                other => panic!("the sample keeps packed references, not {other:?}"),
            });
            for ints in offs.into_iter().chain([k2]).chain(refs) {
                let Ints::Packed(col) = ints else { panic!("v6 packs {ints:?}") };
                assert_eq!(col.offset % 8, 0, "{col:?}");
            }
            let Headers::Bitmap { bits, ranks, .. } = ix.keys else { panic!("a dense bitmap") };
            assert_eq!((bits.offset % 8, ranks.offset % 8), (0, 0));
        }
        // The slot columns too, and from v12 the run ends right after each
        // (their width follows from the counts) and the packed run ids,
        // whose width field is on the 8-byte offset the run ends end on.
        for arena in columns.arenas {
            let ArenaColumns::Runs {
                slots, ends, keys: VectorKeys::Ints(Ints::Packed(keys)), ..
            } = arena
            else {
                panic!("v12 packs {arena:?}")
            };
            let slots_end = slots.offset + slots.bytes();
            assert_eq!(slots.offset % 8, 0);
            // From v14 the run ends may be one Elias–Fano window: its
            // stream's length and width field, then the stream and its
            // directory.
            let ends_end = match ends {
                Offsets::Packed(ends) => {
                    assert_eq!(ends.offset, slots_end);
                    ends.offset + ends.bytes()
                }
                Offsets::EliasFano(window) => {
                    assert_eq!(window.stream.offset, slots_end + 8);
                    assert_eq!(window.selects.offset, window.stream.offset + window.stream.bytes());
                    window.selects.offset + window.selects.bytes()
                }
            };
            assert_eq!(keys.offset, ends_end + 8);
        }
        assert_eq!(r.frozen().unwrap(), sample_dict_and_store().1);
    }

    #[test]
    fn frozen_section_reads_back_identical_slabs() {
        let (_, frozen) = sample_dict_and_store();
        let bytes = snapshot_bytes(true);
        let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
        assert!(r.has_frozen());
        let read_back = r.frozen().unwrap();
        assert_eq!(read_back, frozen);
    }

    #[test]
    fn chunked_streaming_sees_every_triple_once() {
        let bytes = snapshot_bytes(false);
        let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
        let mut total = 0usize;
        let n = r.for_each_triple_chunk(|chunk| total += chunk.len()).unwrap();
        assert_eq!(total as u64, n);
        let (_, store) = sample_dict_and_store();
        assert_eq!(total, store.len());
    }

    #[test]
    fn zero_section_file_roundtrips() {
        // Writer::new + finish with no sections is a valid (if useless)
        // snapshot; the reader must accept it and report sections absent.
        let bytes = Writer::new(Cursor::new(Vec::new())).unwrap().finish().unwrap().into_inner();
        assert_eq!(bytes.len(), 32);
        let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
        assert!(!r.has_frozen());
        assert!(matches!(r.dictionary(), Err(Error::Corrupt(why)) if why.contains("missing")));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = snapshot_bytes(false);
        bytes[0] ^= 0xFF;
        match Reader::new(Cursor::new(&bytes)) {
            Err(Error::Corrupt(why)) => assert!(why.contains("magic"), "{why}"),
            other => panic!("expected corrupt error, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = snapshot_bytes(false);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(Reader::new(Cursor::new(&bytes)), Err(Error::Version(99))));
    }

    #[test]
    fn truncation_is_rejected_at_open() {
        let bytes = snapshot_bytes(true);
        for cut in [1, 8, 13, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(Reader::new(Cursor::new(&bytes[..cut])), Err(Error::Corrupt(_))),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_section_extent_is_rejected() {
        let bytes = snapshot_bytes(false);
        // The table sits 16 bytes before the trailer; corrupt the first
        // section's length field (tag 4 + offset 8 bytes in).
        let table_pos =
            u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap())
                as usize;
        let mut corrupted = bytes.clone();
        corrupted[table_pos + 4 + 4 + 8..table_pos + 4 + 4 + 16]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(Reader::new(Cursor::new(&corrupted)), Err(Error::Corrupt(_))));
    }

    #[test]
    fn ids_beyond_the_dictionary_are_rejected_at_load() {
        // A snapshot whose id columns reference terms the dictionary
        // lacks must fail at open, not panic on the first decode.
        let store = FrozenHexastore::from_triples([IdTriple::from((0, 1, 2))]);
        let path = std::env::temp_dir()
            .join(format!("hexsnap_test_badids_{}.hexsnap", std::process::id()));
        save(&path, &Dictionary::new(), &store).unwrap();
        assert!(matches!(load(&path), Err(Error::Corrupt(_))));
        save_frozen(&path, &Dictionary::new(), &store).unwrap();
        assert!(matches!(load_frozen(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    /// True when `primary` and `mirror` pass [`check_ordering`] over
    /// `lists` lists.
    fn pair_consistent(primary: &FrozenIndex, mirror: &FrozenIndex, lists: usize) -> bool {
        let mut owners = Vec::new();
        check_ordering(primary, lists, Leaves::Primary(&mut owners)).is_ok() && {
            let leaves = Leaves::Mirror { owners: &owners, seen: vec![false; lists] };
            check_ordering(mirror, lists, leaves).is_ok()
        }
    }

    #[test]
    fn disagreeing_index_pairs_are_detected() {
        use crate::frozen::{FrozenIndex, LevelSize};
        // A consistent two-triple pair: (1, 2) → list 0, (3, 4) → list 1.
        let build = |new: fn(LevelSize) -> FrozenIndex, leaves: [(u32, u32, u32); 2]| {
            let mut size = LevelSize::default();
            for &(k1, k2, l) in &leaves {
                size.add(Id(k1), 1, Id(k2), Id(k2));
                size.refs.add(1, Id(l), Id(l));
            }
            let mut ix = new(size);
            for (k1, k2, l) in leaves {
                ix.push_leaf(Id(k2), l);
                ix.end_k1(Id(k1));
            }
            ix
        };
        let primary = build(FrozenIndex::primary, [(1, 2, 0), (3, 4, 1)]);
        let mirror = |leaves| build(FrozenIndex::mirror, leaves);
        assert!(pair_consistent(&primary, &mirror([(2, 1, 0), (4, 3, 1)]), 2));
        // Mirror referencing the wrong list per key pair is rejected.
        assert!(!pair_consistent(&primary, &mirror([(2, 1, 1), (4, 3, 0)]), 2));
        // Mirror with a key that reverses to a pair the primary lacks.
        assert!(!pair_consistent(&primary, &mirror([(2, 3, 0), (4, 3, 1)]), 2));
        // A mirror that references one list twice is rejected.
        assert!(!pair_consistent(&primary, &mirror([(2, 1, 0), (4, 3, 0)]), 2));
        // A primary with explicit references is not a primary.
        assert!(!pair_consistent(
            &mirror([(1, 2, 0), (3, 4, 1)]),
            &mirror([(2, 1, 0), (4, 3, 1)]),
            2
        ));
    }

    /// A file holding only a `DICT` section with these columns.
    fn dict_file(image: &ArenaImage) -> Vec<u8> {
        let mut w = Writer::new(Cursor::new(Vec::new())).unwrap();
        let i = image;
        let (heads, ends, prefix_ends) = (i.heads.view(), i.ends.view(), i.prefix_ends.view());
        let front = FrontImage::default();
        w.dict_section(&front, heads, ends, &i.arena, prefix_ends, &i.prefixes).unwrap();
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn a_v5_dictionary_shares_prefixes_on_disk_and_reads_back_equal() {
        let (dict, _) = sample_dict_and_store();
        let bytes = snapshot_bytes(true);
        let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
        let Ok((_, DictColumns::Prefixed { heads, prefixes, .. })) = r.dict_columns() else {
            panic!("a v5 file has a prefixed DICT")
        };
        assert_eq!(heads.len(), dict.len());
        // From v10 the heads are packed: four prefixes and five kinds
        // take 5 bits.
        assert!(matches!(heads, Ints::Packed(Packed { width: 5, .. })), "{heads:?}");
        // "", "http://x/", "fr" and the integer datatype, once each.
        assert_eq!(dict.prefix_count(), 4);
        assert_eq!(
            prefixes.len,
            "http://x/fr".len() + "http://www.w3.org/2001/XMLSchema#integer".len()
        );
        assert_eq!(r.dictionary().unwrap().image(), dict.image());
        assert_eq!(section(&dict_file(&dict.image()), TAG_DICT), section(&bytes, TAG_DICT));
    }

    #[test]
    fn every_dict_byte_flip_is_rejected_or_decodes_every_id() {
        // IRIs under a shared namespace, tagged, typed and plain literals
        // and blank nodes: every column of the section, each byte flipped.
        let (dict, _) = sample_dict_and_store();
        let bytes = dict_file(&dict.image());
        let (start, len) = Reader::new(Cursor::new(&bytes)).unwrap().extent(TAG_DICT).unwrap();
        for at in start as usize..(start + len) as usize {
            let mut copy = bytes.clone();
            copy[at] ^= 0xFF;
            match Reader::new(Cursor::new(&copy)).and_then(|mut r| r.dictionary()) {
                Ok(read) => {
                    for id in 0..read.len() as u32 {
                        assert!(read.decode(Id(id)).is_some(), "byte {at}: id {id} lost");
                    }
                }
                Err(e) => assert!(matches!(e, Error::Corrupt(_)), "byte {at}: {e}"),
            }
        }
    }

    #[test]
    fn non_canonical_dictionary_images_are_corrupt() {
        let mut dict = Dictionary::new();
        for t in [
            Term::iri("http://x/a"),
            Term::lang_literal("chat", "fr"),
            Term::typed_literal("7", "http://www.w3.org/2001/XMLSchema#int"),
            Term::blank("b"),
        ] {
            dict.encode(&t);
        }
        let image = dict.image();
        assert!(Reader::new(Cursor::new(dict_file(&image))).unwrap().dictionary().is_ok());
        let head = |kind: u32, prefix: u32| prefix << 3 | kind;
        let push_prefix = |i: &mut Plain, p: &str| {
            i.prefixes.extend_from_slice(p.as_bytes());
            i.prefix_ends.push(i.prefixes.len() as u32);
        };
        type Edit = Box<dyn Fn(&mut Plain)>;
        let cases: [(&str, Edit); 7] = [
            ("an IRI whose own bytes hold a '/'", Box::new(|i| i.arena[0] = b'/')),
            ("an IRI prefix not ending in '/' or '#'", Box::new(|i| i.prefixes[8] = b'y')),
            ("a blank node with a prefix", Box::new(move |i| i.heads[3] = head(1, 2))),
            (
                "a typed literal under xsd:string",
                Box::new(move |i| {
                    push_prefix(i, rdf_model::XSD_STRING);
                    i.heads[2] = head(4, 4);
                }),
            ),
            ("a prefix id out of range", Box::new(move |i| i.heads[1] = head(3, 9))),
            ("duplicate prefixes", Box::new(move |i| push_prefix(i, "fr"))),
            (
                "duplicate terms",
                Box::new(|i| {
                    i.heads.push(i.heads[3]);
                    i.arena.push(b'b');
                    i.ends.push(i.arena.len() as u32);
                }),
            ),
        ];
        for (what, edit) in cases {
            let mut bad = Plain::of(&image);
            edit(&mut bad);
            let bad = bad.packed();
            let why = hex_dict::Dictionary::try_from_arena(bad.clone()).unwrap_err().to_string();
            match Reader::new(Cursor::new(dict_file(&bad))).unwrap().dictionary() {
                Err(Error::Corrupt(got)) => assert_eq!(got, why, "{what}"),
                other => panic!("{what}: {:?}", other.map(|d| d.len())),
            }
        }
    }

    /// A dictionary image with its integer columns as plain values.
    struct Plain {
        heads: Vec<u32>,
        ends: Vec<u32>,
        arena: Vec<u8>,
        prefix_ends: Vec<u32>,
        prefixes: Vec<u8>,
    }

    impl Plain {
        fn of(image: &ArenaImage) -> Self {
            Plain {
                heads: image.heads.values().collect(),
                ends: image.ends.values().collect(),
                arena: image.arena.to_vec(),
                prefix_ends: image.prefix_ends.values().collect(),
                prefixes: image.prefixes.to_vec(),
            }
        }

        fn packed(self) -> ArenaImage {
            ArenaImage {
                heads: PackedColumn::from_values(&self.heads),
                ends: PackedColumn::from_values(&self.ends),
                arena: self.arena.into(),
                prefix_ends: PackedColumn::from_values(&self.prefix_ends),
                prefixes: self.prefixes.into(),
            }
        }
    }

    /// A version-4 file holding only a `DICT` section of these terms, laid
    /// out as v1–v4 wrote it: kind bytes, piece ends, one arena.
    fn v4_dict_file(terms: &[(u8, &str, Option<&str>)]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(terms.len() as u32).to_le_bytes());
        payload.extend(terms.iter().map(|t| t.0));
        let pieces: Vec<&str> =
            terms.iter().flat_map(|t| std::iter::once(t.1).chain(t.2)).collect();
        payload.extend_from_slice(&(pieces.len() as u32).to_le_bytes());
        let mut end = 0u32;
        for p in &pieces {
            end += p.len() as u32;
            payload.extend_from_slice(&end.to_le_bytes());
        }
        payload.extend_from_slice(&u64::from(end).to_le_bytes());
        payload.extend(pieces.iter().flat_map(|p| p.bytes()));
        let mut w = Writer::new(Cursor::new(Vec::new())).unwrap();
        let start = w.begin_section().unwrap();
        w.w.write_all(&payload).unwrap();
        w.end_section(TAG_DICT, start).unwrap();
        let mut bytes = w.finish().unwrap().into_inner();
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        bytes
    }

    #[test]
    fn a_v4_dictionary_is_interned_again_in_id_order() {
        let int = "http://www.w3.org/2001/XMLSchema#integer";
        let terms = [
            (0, "http://x/b", None),
            (3, "chat", Some("fr")),
            (4, "7", Some(int)),
            (0, "urn:a", None),
        ];
        let read = Reader::new(Cursor::new(v4_dict_file(&terms))).unwrap().dictionary().unwrap();
        let mut fresh = Dictionary::new();
        for t in [
            Term::iri("http://x/b"),
            Term::lang_literal("chat", "fr"),
            Term::typed_literal("7", int),
            Term::iri("urn:a"),
        ] {
            fresh.encode(&t);
        }
        assert_eq!(read.image(), fresh.image());
        let corrupt = |terms: &[(u8, &str, Option<&str>)], why: &str| match Reader::new(
            Cursor::new(v4_dict_file(terms)),
        )
        .unwrap()
        .dictionary()
        {
            Err(Error::Corrupt(got)) => assert!(got.contains(why), "{got}"),
            other => panic!("{why}: {:?}", other.map(|d| d.len())),
        };
        corrupt(&[(0, "http://x/b", None), (0, "http://x/b", None)], "duplicate term");
        corrupt(&[(4, "v", Some(rdf_model::XSD_STRING))], "xsd:string");
        corrupt(&[(7, "v", None)], "unknown term kind 7");
        corrupt(&[(3, "v", None)], "fewer string pieces");
    }

    #[test]
    fn error_display_is_informative() {
        let e = Error::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        assert!(Error::Version(7).to_string().contains('7'));
        let io_err = Error::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io_err.to_string().contains("gone"));
    }
}
