//! Mmap-backed cold-open for `hexsnap` slab snapshots.
//!
//! [`hexastore::hexsnap::load_frozen`] reads an entire snapshot into
//! memory before the first query can run; for datasets at or beyond RAM
//! that eager read *is* the cold-start cost. This crate opens the same
//! file by memory-mapping it and viewing the uncompressed `FROZ` slab
//! columns in place: open time becomes O(section headers) for the
//! slabs ([`open_store`]; [`open`] adds a pass over the dictionary and one
//! over the columns that address terminal lists), and the operating
//! system pages in exactly the columns queries touch.
//!
//! The crate knows no section layout and no store of its own. It opens a
//! [`hexastore::hexsnap::Reader`] over the mapping, whose walkers
//! ([`frozen_columns`](hexastore::hexsnap::Reader::frozen_columns),
//! [`dict_columns`](hexastore::hexsnap::Reader::dict_columns)) locate
//! every column from the count fields alone, and hands what they locate
//! to the stores' own constructors as windows of the mapping:
//! [`FrozenHexastore::mapped`] (whose docs hold the trust model) and
//! [`Dictionary::try_from_arena`]. What is left here is what a mapping
//! needs: the map itself, the refusal of files it cannot map, and
//! [`verify`]. The header bitmaps' and Elias–Fano streams' rank
//! directories are the file's own columns, so [`open_store`] stays
//! O(section headers).
//!
//! The entry points are [`open`] (dictionary + store) and
//! [`open_dataset`] (a ready-to-query [`hexastore::Dataset`]). The store
//! they return is a [`FrozenHexastore`] — the same type
//! [`hexastore::hexsnap::load_frozen`] returns, whose columns here borrow
//! the mapping instead of owning their bytes — so planning, query
//! execution and snapshot serving work over it unchanged.
//!
//! Only uncompressed snapshots of the current format version are
//! mappable: compressed (`FRZC`) sections and files written before
//! version 10 — whose slab columns (before version 4), dictionary
//! (version 4), unpacked index levels (versions 4 and 5), unpacked list
//! slots (versions 4 to 6), unpacked overflow runs (versions 4 to 7),
//! `u32` header keys (versions 4 to 8) or `u32` dictionary columns
//! (versions 5 to 9) are laid out differently — must go through the
//! decoding [`hexastore::hexsnap::load_frozen`] path (and a re-save), and
//! [`open`] says so in its error rather than silently falling back.
//!
//! ```no_run
//! use hexastore::hexsnap::save_frozen;
//! use hexastore::{GraphStore, IdPattern, TripleStore};
//! use rdf_model::{Term, Triple};
//!
//! let mut g = GraphStore::new();
//! g.insert(&Triple::new(Term::iri("e:s"), Term::iri("e:p"), Term::iri("e:o")));
//! let frozen = g.store().freeze();
//! save_frozen("snapshot.hexsnap", g.dict(), &frozen)?;
//!
//! // Elsewhere, later: open without reading the slabs.
//! let ds = hex_disk::open_dataset("snapshot.hexsnap")?;
//! assert_eq!(ds.store().count_matching(IdPattern::new(None, None, None)), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(missing_docs)]
#![deny(warnings)]

// The mapped dictionary's offset tables and the column views are read as
// little-endian words; the crate is built and tested only on
// little-endian targets.
#[cfg(target_endian = "big")]
compile_error!(
    "hex-disk reinterprets little-endian snapshot columns and requires a little-endian target"
);

mod mmap;

pub use mmap::Mmap;

use hex_dict::packed::{Bytes, PackedColumn, SharedBytes};
use hex_dict::{ArenaImage, Dictionary};
use hexastore::access::OrderedStore;
use hexastore::hexsnap;
use hexastore::{Dataset, FrozenHexastore, IndexKind, TripleStore};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Errors from opening a snapshot as a mapping.
#[derive(Debug)]
pub enum Error {
    /// The snapshot container or dictionary failed to parse.
    Snapshot(hexsnap::Error),
    /// The file parsed but cannot be memory-mapped (compressed slabs,
    /// a pre-v10 column layout, or no slab section at all). The message
    /// names the remedy.
    Unmappable(String),
    /// The mapped slab section's interior is structurally invalid.
    Corrupt(String),
    /// The underlying file could not be opened or mapped.
    Io(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Error::Unmappable(m) => write!(f, "snapshot cannot be mapped: {m}"),
            Error::Corrupt(m) => write!(f, "mapped slab section is corrupt: {m}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Snapshot(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hexsnap::Error> for Error {
    fn from(e: hexsnap::Error) -> Self {
        Error::Snapshot(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Opens a `hexsnap` file as a dictionary plus a frozen store over its
/// mapping, without reading the slab columns or copying the term strings.
///
/// The `DICT` section is read in place: the packed head column, the two
/// packed offset tables and the term and prefix arenas all stay behind
/// the mapping as [`Bytes`] windows, shared with the slab columns in one
/// `mmap` of the whole file, so the dictionary's heap holds its two
/// reverse indexes and nothing else. Open-time work on the dictionary is
/// one validating hash pass per table (canonical packed columns, UTF-8,
/// index build), no per-term allocation; on the slabs it is [`verify`], a
/// pass over the columns that address terminal lists ([`Error::Corrupt`]
/// if they are not what a writer lays down).
/// Fails with [`Error::Unmappable`] for snapshots whose slabs were
/// saved compressed, for files written before format version 10 (their
/// slab columns, from version 4 their dictionary, from version 5 their
/// unpacked index levels, from version 6 their unpacked list slots, from
/// version 7 their unpacked overflow runs, from version 8 their `u32`
/// header keys, or from version 9 their `u32` dictionary columns are not
/// the ones the read path maps), and for
/// snapshots carrying no frozen section — open those with
/// [`hexastore::hexsnap::load_frozen`] and re-save them with
/// [`hexastore::hexsnap::save_frozen`] under the current format version.
///
/// ```no_run
/// let (dict, store) = hex_disk::open("snapshot.hexsnap")?;
/// let ds = hexastore::Dataset::from_parts(dict, store);
/// # Ok::<(), hex_disk::Error>(())
/// ```
pub fn open(path: impl AsRef<Path>) -> Result<(Dictionary, FrozenHexastore)> {
    let map = map_file(path.as_ref())?;
    let (store, mut reader) = open_mapped(&map)?;
    verify(&store)?;
    Ok((dict_from(&map, reader.dict_columns()?)?, store))
}

/// Opens only the slab section of a `hexsnap` file as a store over its
/// mapping, skipping the dictionary entirely.
///
/// Skips the dictionary's open-time hash pass and [`verify`], so it reads
/// nothing but the section's headers; callers that already hold the
/// dictionary (a serving tier re-opening generations of the same dataset,
/// or a measurement isolating the slab path) can use it directly, and
/// verify when they choose to. Same mapping requirements as [`open`].
///
/// ```no_run
/// let store = hex_disk::open_store("snapshot.hexsnap")?;
/// # Ok::<(), hex_disk::Error>(())
/// ```
pub fn open_store(path: impl AsRef<Path>) -> Result<FrozenHexastore> {
    let map = map_file(path.as_ref())?;
    Ok(open_mapped(&map)?.0)
}

/// Checks, in one pass over the three arenas' columns
/// (`O(lists + overflow words)`, about 10 of a file's 31 bytes per
/// triple), that they are what a writer lays down
/// ([`ArenaView::validate`](hexastore::access::ArenaView::validate)): the
/// slot column is one flag bit above its widest value wide, every slot
/// that is not itself a list names a run inside the overflow column, runs
/// neither overlap nor leave a gap, each is strictly ascending, and
/// together they hold one item per triple. A store that fails is
/// [`Error::Corrupt`]; one that passes can still be wrong in its index
/// levels (see [`FrozenHexastore::mapped`]'s trust model). [`open`] runs
/// it; [`open_store`] leaves it to its caller.
pub fn verify(store: &FrozenHexastore) -> Result<()> {
    // Each primary ordering reads one of the three arenas.
    for kind in [IndexKind::Spo, IndexKind::Sop, IndexKind::Pos] {
        let arena = store.ordering(kind).arena;
        let items = arena.validate().map_err(|e| Error::Corrupt(format!("arena: {e}")))?;
        if items != store.len() {
            return Err(Error::Corrupt(format!(
                "arena columns hold {items} items where the section declares {} triples",
                store.len()
            )));
        }
    }
    Ok(())
}

/// Maps a whole file.
fn map_file(path: &Path) -> Result<SharedBytes> {
    Ok(Arc::new(Mmap::map(&File::open(path)?)?))
}

/// A [`hexsnap::Reader`] over a mapping.
type MapReader<'a> = hexsnap::Reader<std::io::Cursor<&'a [u8]>>;

/// Opens the mapping's slab section as a store, refusing what cannot be
/// mapped and naming the remedy. The reader runs over the mapping itself,
/// so the section table and every column it locates come from the bytes
/// the store views; it is returned for the `DICT` walk.
fn open_mapped(map: &SharedBytes) -> Result<(FrozenHexastore, MapReader<'_>)> {
    let mut reader = hexsnap::Reader::new(std::io::Cursor::new((**map).as_ref()))?;
    if reader.frozen_section_extent().is_none() {
        return Err(Error::Unmappable(if reader.has_frozen() {
            "the slab section is compressed; re-save with Compression::None \
             or open via hexsnap::load_frozen"
                .to_string()
        } else {
            "the snapshot has no frozen slab section; save one with hexsnap::save_frozen"
                .to_string()
        }));
    }
    // Older versions address terminal lists through an offsets column
    // (v3), or store (offset, length) pairs and list references for every
    // ordering (and v1 does not align the section): not the columns the
    // shared read path walks. A v4 file's dictionary stores whole terms, not the prefix-shared columns the
    // mapped dictionary adopts; v4 and v5 files store their index levels
    // as whole `u32`s, v4 to v6 files their list slots and v4 to v7
    // files their overflow runs, where the read path walks bit-packed
    // columns; and files before v9 keep `u32` header keys where the read
    // path ranks a header bitmap; and files before v10 keep `u32`
    // dictionary columns where the mapped dictionary reads packed ones.
    // Refused before the section is walked.
    if reader.version() < hexsnap::VERSION {
        let what = match reader.version() {
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
        return Err(Error::Unmappable(format!(
            "a version-{} file's {what} predates the mappable layout; open it via \
             hexsnap::load_frozen and re-save with hexsnap::save_frozen (format version {})",
            reader.version(),
            hexsnap::VERSION,
        )));
    }
    let corrupt = |e| match e {
        hexsnap::Error::Corrupt(why) => Error::Corrupt(why),
        e => Error::Snapshot(e),
    };
    let columns = reader.frozen_columns().map_err(corrupt)?;
    Ok((FrozenHexastore::mapped(map, &columns).map_err(corrupt)?, reader))
}

/// The dictionary over the mapping, from the `DICT` columns
/// [`hexsnap::Reader::dict_columns`] locates: the packed head column, the
/// two packed offset tables and the term and prefix arenas are handed to
/// [`Dictionary::try_from_arena`] as windows of the mapping instead of
/// copies of their bytes. The constructor validates them against the
/// mapped bytes (canonical packed images, offset tables, UTF-8, heads,
/// the one representation each term has, distinctness); a file mutated
/// after that is the provider's breach of trust and degrades to missed
/// lookups and `None` decodes, never a panic.
fn dict_from(map: &SharedBytes, columns: hexsnap::DictColumns) -> Result<Dictionary> {
    let hexsnap::DictColumns::Prefixed { heads, ends, arena, prefix_ends, prefixes } = columns
    else {
        return Err(Error::Unmappable("the dictionary predates the mappable layout".into()));
    };
    let corrupt = |why: String| Error::Snapshot(hexsnap::Error::Corrupt(why));
    let window = |range: std::ops::Range<usize>| {
        Bytes::shared(SharedBytes::clone(map), range)
            .ok_or_else(|| corrupt("a dictionary column extends past the mapping".into()))
    };
    let packed = |ints| match ints {
        hexsnap::Ints::Packed(col) => {
            let bytes = window(col.offset..col.offset + col.bytes())?;
            PackedColumn::new(bytes, col.width, col.len).map_err(|e| corrupt(e.to_string()))
        }
        hexsnap::Ints::U32(_) => {
            Err(Error::Unmappable("the dictionary's columns predate the mappable layout".into()))
        }
    };
    let bytes = |col: hexsnap::Column| window(col.offset..col.offset + col.len);
    let image = ArenaImage {
        heads: packed(heads)?,
        ends: packed(ends)?,
        arena: bytes(arena)?,
        prefix_ends: packed(prefix_ends)?,
        prefixes: bytes(prefixes)?,
    };
    Dictionary::try_from_arena(image).map_err(|e| corrupt(e.to_string()))
}

/// Opens a `hexsnap` file directly as a queryable
/// [`Dataset<FrozenHexastore>`](hexastore::Dataset).
///
/// Convenience over [`open`] + [`Dataset::from_parts`]; see [`open`]
/// for the mapping requirements and failure modes.
pub fn open_dataset(path: impl AsRef<Path>) -> Result<Dataset<FrozenHexastore>> {
    let (dict, store) = open(path)?;
    Ok(Dataset::from_parts(dict, store))
}
