//! Mmap-backed cold-open for `hexsnap` slab snapshots.
//!
//! [`hexastore::hexsnap::load_frozen`] reads an entire snapshot into
//! memory before the first query can run; for datasets at or beyond RAM
//! that eager read *is* the cold-start cost. This crate opens the same
//! file by memory-mapping it and reinterpreting the uncompressed `FROZ`
//! slab columns in place: open time becomes O(section headers) for the
//! slabs ([`open_store`]; [`open`] adds a pass over the dictionary and one
//! over the columns that address terminal lists), and the operating
//! system pages in exactly the columns queries touch.
//!
//! The entry points are [`open`] (dictionary + store) and
//! [`open_dataset`] (a ready-to-query [`hexastore::Dataset`]). The
//! returned [`MmapFrozenHexastore`] implements
//! [`hexastore::TripleStore`], so planning, query execution and
//! snapshot serving work over it exactly as over the in-memory frozen
//! store.
//!
//! Only uncompressed snapshots of the current format version are
//! mappable: compressed (`FRZC`) sections and files written before
//! version 4 — whose slab columns are laid out differently — must go
//! through the decoding [`hexastore::hexsnap::load_frozen`] path (and a
//! re-save), and [`open`] says so in its error rather than silently
//! falling back.
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

// The column views reinterpret little-endian file bytes as host-order
// `u32`s; on a big-endian target every id would be byte-swapped.
#[cfg(target_endian = "big")]
compile_error!(
    "hex-disk reinterprets little-endian snapshot columns and requires a little-endian target"
);

mod cursor;
mod mmap;
mod store;

pub use mmap::Mmap;
pub use store::MmapFrozenHexastore;

use hex_dict::Dictionary;
use hexastore::hexsnap;
use hexastore::Dataset;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

/// Errors from opening a snapshot as a mapping.
#[derive(Debug)]
pub enum Error {
    /// The snapshot container or dictionary failed to parse.
    Snapshot(hexsnap::Error),
    /// The file parsed but cannot be memory-mapped (compressed slabs,
    /// a pre-v4 column layout, or no slab section at all). The message
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

/// Opens a `hexsnap` file as a dictionary plus an mmap-backed frozen
/// store, without reading the slab columns or copying the term strings.
///
/// The `DICT` section is parsed in place: the kind column and the piece
/// offset table are copied (both small, a few bytes per term), but the
/// string arena — the bulk of the section — stays behind the mapping as
/// a [`hex_dict::SharedBytes`] window, shared with the slab columns in
/// one `mmap` of the whole file. Open-time work on the arena is one
/// validating hash pass (UTF-8 + index build), no per-term allocation;
/// on the slabs it is [`MmapFrozenHexastore::verify`], a pass over the
/// columns that address terminal lists ([`Error::Corrupt`] if they are
/// not what a writer lays down).
/// Fails with [`Error::Unmappable`] for snapshots whose slabs were
/// saved compressed, for files written before format version 4 (their
/// slab columns are not the ones the read path walks), and for
/// snapshots carrying no frozen section — open those with
/// [`hexastore::hexsnap::load_frozen`] and re-save them with
/// [`hexastore::hexsnap::save_frozen`] under the current format version.
///
/// ```no_run
/// let (dict, store) = hex_disk::open("snapshot.hexsnap")?;
/// let ds = hexastore::Dataset::from_parts(dict, store);
/// # Ok::<(), hex_disk::Error>(())
/// ```
pub fn open(path: impl AsRef<Path>) -> Result<(Dictionary, MmapFrozenHexastore)> {
    let (map, froz, dict) = map_snapshot(path.as_ref())?;
    let store = MmapFrozenHexastore::open_section(&map, froz)?;
    store.verify()?;
    Ok((dict_from(&map, dict)?, store))
}

/// Opens only the slab section of a `hexsnap` file as an mmap-backed
/// store, skipping the dictionary entirely.
///
/// Skips the dictionary's open-time hash pass and
/// [`MmapFrozenHexastore::verify`], so it reads nothing but the section's
/// headers; callers that already hold the dictionary (a serving tier
/// re-opening generations of the same dataset, or a measurement
/// isolating the slab path) can use it directly, and verify when they
/// choose to. Same mapping requirements as [`open`].
///
/// ```no_run
/// let store = hex_disk::open_store("snapshot.hexsnap")?;
/// # Ok::<(), hex_disk::Error>(())
/// ```
pub fn open_store(path: impl AsRef<Path>) -> Result<MmapFrozenHexastore> {
    let (map, froz, _) = map_snapshot(path.as_ref())?;
    MmapFrozenHexastore::open_section(&map, froz)
}

/// A section's `(offset, length)` in the file.
type Extent = (u64, u64);

/// Reads the section table, checks the slab section is mappable, and maps
/// the file: the mapping, the `FROZ` extent and the `DICT` extent.
fn map_snapshot(path: &Path) -> Result<(Arc<Mmap>, Extent, Option<Extent>)> {
    let file = File::open(path)?;
    let reader = hexsnap::Reader::new(BufReader::new(&file))?;
    let (froz, dict) = (frozen_extent(&reader)?, reader.dict_section_extent());
    drop(reader);
    Ok((Arc::new(Mmap::map(&file)?), froz, dict))
}

/// Locates the raw `FROZ` extent and checks mappability, naming the
/// remedy when there is none.
fn frozen_extent(reader: &hexsnap::Reader<BufReader<&File>>) -> Result<(u64, u64)> {
    let (off, len) = match reader.frozen_section_extent() {
        Some(extent) => extent,
        None if reader.has_frozen() => {
            return Err(Error::Unmappable(
                "the slab section is compressed; re-save with Compression::None \
                 or open via hexsnap::load_frozen"
                    .to_string(),
            ));
        }
        None => {
            return Err(Error::Unmappable(
                "the snapshot has no frozen slab section; save one with hexsnap::save_frozen"
                    .to_string(),
            ));
        }
    };
    // Older versions address terminal lists through an offsets column
    // (v3), or store (offset, length) pairs and list references for every
    // ordering (and v1 does not align the section): not the columns the
    // shared read path walks.
    if reader.version() < hexsnap::VERSION {
        return Err(Error::Unmappable(format!(
            "a version-{} file's slab columns predate the mappable layout; open it via \
             hexsnap::load_frozen and re-save with hexsnap::save_frozen (format version {})",
            reader.version(),
            hexsnap::VERSION,
        )));
    }
    Ok((off, len))
}

/// Parses the `DICT` section out of the mapping, keeping the string
/// arena mapped.
///
/// Mirrors `hexsnap::Reader::dictionary` check for check — same
/// allocation bounds — but hands the arena extent to
/// [`Dictionary::try_from_shared_arena`] instead of copying the bytes.
/// The constructor validates the offset table against the mapped bytes
/// (kind bytes, UTF-8, char boundaries, distinctness); a file mutated
/// after that is the provider's breach of trust and degrades to missed
/// lookups and `None` decodes, never a panic.
fn dict_from(map: &Arc<Mmap>, extent: Option<(u64, u64)>) -> Result<Dictionary> {
    fn corrupt(msg: String) -> Error {
        Error::Snapshot(hexsnap::Error::Corrupt(msg))
    }
    let Some(extent) = extent else {
        return Err(corrupt("missing DICT section".to_string()));
    };
    let mut cur = cursor::Cursor::new(map, extent, "DICT", corrupt)?;
    let sec_len = cur.section_len();
    let n = cur.u32("dictionary term count")? as usize;
    // Every declared count must fit in the section: this bounds
    // allocations before they happen, so a flipped count byte cannot
    // balloon memory.
    if n > sec_len {
        return cur.corrupt("dictionary term count exceeds section size");
    }
    let kinds = cur.take(n, "dictionary kind column")?.to_vec();
    let n_pieces = cur.u32("dictionary piece count")? as usize;
    if n_pieces.checked_mul(4).is_none_or(|bytes| bytes > sec_len) {
        return cur.corrupt("dictionary piece count exceeds section size");
    }
    let ends: Vec<u32> = cur
        .take(n_pieces * 4, "dictionary piece offset table")?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let n_bytes = cur.len64("dictionary arena size")?;
    if n_bytes > sec_len {
        return cur.corrupt("dictionary arena size exceeds section size");
    }
    let arena_off = cur.offset();
    cur.take(n_bytes, "dictionary string arena")?;
    let bytes: hex_dict::SharedBytes = Arc::clone(map) as hex_dict::SharedBytes;
    Dictionary::try_from_shared_arena(kinds, ends, bytes, arena_off, n_bytes)
        .map_err(|e| corrupt(e.to_string()))
}

/// Opens a `hexsnap` file directly as a queryable
/// [`Dataset<MmapFrozenHexastore>`](hexastore::Dataset).
///
/// Convenience over [`open`] + [`Dataset::from_parts`]; see [`open`]
/// for the mapping requirements and failure modes.
pub fn open_dataset(path: impl AsRef<Path>) -> Result<Dataset<MmapFrozenHexastore>> {
    let (dict, store) = open(path)?;
    Ok(Dataset::from_parts(dict, store))
}
