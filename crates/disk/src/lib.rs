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
//! to the constructors the eager reader builds with:
//! [`frozen_from_columns`](hexastore::hexsnap::frozen_from_columns)
//! (whose docs hold the trust model) and
//! [`dictionary_from_columns`](hexastore::hexsnap::dictionary_from_columns),
//! with a source that makes every column a window of the mapping where
//! the eager reader's copies it into a buffer of its own. What is left
//! here is what a mapping needs: the map itself, that source, the refusal
//! of files it cannot map, and [`verify`]. The header bitmaps' and
//! Elias–Fano streams' rank directories are the file's own columns, so
//! [`open_store`] stays O(section headers).
//!
//! The entry points are [`open`] (dictionary + store) and
//! [`open_dataset`] (a ready-to-query [`hexastore::Dataset`]). The store
//! they return is a [`FrozenHexastore`] — the same type
//! [`hexastore::hexsnap::load_frozen`] returns, whose columns here borrow
//! the mapping instead of owning their bytes — so planning, query
//! execution and snapshot serving work over it unchanged.
//!
//! Only uncompressed snapshots of the current format version
//! ([`hexastore::hexsnap::VERSION`]) or of v10, which lacks only the
//! frozen dictionary tier, are mappable: compressed (`FRZC`)
//! sections and files of older versions — each of which lays out some
//! column differently ([`hexastore::hexsnap::mapping_refusal`] names
//! which) — must go through the decoding
//! [`hexastore::hexsnap::load_frozen`] path (and a re-save), and [`open`]
//! says so in its error rather than silently falling back.
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

use hex_dict::packed::{Bytes, SharedBytes};
use hex_dict::Dictionary;
use hexastore::hexsnap;
use hexastore::{Dataset, FrozenHexastore};
use std::fs::File;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Errors from opening a snapshot as a mapping.
#[derive(Debug)]
pub enum Error {
    /// The snapshot container or dictionary failed to parse.
    Snapshot(hexsnap::Error),
    /// The file parsed but cannot be memory-mapped (compressed slabs,
    /// an older format version's column layout, or no slab section at
    /// all). The message names the remedy.
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
/// The `DICT` section is read in place: the frozen tier's blocks and
/// block offsets, the delta tier's packed head column, its two packed
/// offset tables and its term and prefix arenas all stay behind the
/// mapping as [`Bytes`] windows, shared with the slab columns in one
/// `mmap` of the whole file. The frozen tier gets no hash table, so the
/// dictionary's heap holds the delta's two reverse indexes and nothing
/// else: a few bytes for a bulk-loaded file, whose delta is empty.
/// Open-time work on the dictionary is one sequential validating pass
/// over the frozen tier (block offsets, varints, shared prefixes,
/// ascending keys, UTF-8) and one validating hash pass per delta table
/// (canonical packed columns, UTF-8, index build), no per-term
/// allocation; on the slabs it is [`verify`], a
/// pass over the columns that address terminal lists ([`Error::Corrupt`]
/// if they are not what a writer lays down).
/// Fails with [`Error::Unmappable`] for snapshots whose slabs were
/// saved compressed, for files of a format version before v10 (some of
/// their columns are not the ones the read
/// path maps; [`hexsnap::mapping_refusal`] names which), and for
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
    let (front, columns) = reader.dict_columns()?;
    Ok((hexsnap::dictionary_from_columns(front, columns, windows(&map))?, store))
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
/// (`O(lists + overflow words)`: 6.9 of the 22.3 bytes per triple of the
/// 197,756-triple `snapshot_size` file in `bench-artifacts/BENCH_ci.json`),
/// that they are what a writer lays down
/// ([`hexsnap::check_arenas`], the check the eager reader runs): the slot
/// column is one flag bit above its widest value wide, every slot that is
/// not itself a list names a run inside the overflow column, runs neither
/// overlap nor leave a gap, each is strictly ascending, and together they
/// hold one item per triple. A store that fails is [`Error::Corrupt`]; one
/// that passes can still be wrong in its index levels (see
/// [`hexsnap::frozen_from_columns`]'s trust model). [`open`] runs it;
/// [`open_store`] leaves it to its caller.
pub fn verify(store: &FrozenHexastore) -> Result<()> {
    hexsnap::check_arenas(store).map_err(corrupt)
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
    // Every older version lays out some column other than the ones the
    // read path views: refused before any walk.
    if let Some(why) = hexsnap::mapping_refusal(reader.version()) {
        return Err(Error::Unmappable(why));
    }
    let columns = reader.frozen_columns().map_err(corrupt)?;
    Ok((hexsnap::frozen_from_columns(&columns, windows(map)).map_err(corrupt)?, reader))
}

/// The mapping's column source: every column a window of the mapping.
fn windows(map: &SharedBytes) -> impl FnMut(Range<usize>) -> hexsnap::Result<Bytes> + '_ {
    |at| {
        Bytes::shared(SharedBytes::clone(map), at)
            .ok_or_else(|| hexsnap::Error::Corrupt("a column extends past the mapping".into()))
    }
}

/// A corrupt slab section as this crate's [`Error::Corrupt`].
fn corrupt(e: hexsnap::Error) -> Error {
    match e {
        hexsnap::Error::Corrupt(why) => Error::Corrupt(why),
        e => Error::Snapshot(e),
    }
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
