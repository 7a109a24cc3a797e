//! The mmap-backed frozen store: the `FROZ` columns
//! [`hexastore::hexsnap::Reader::frozen_columns`] locates, reinterpreted
//! in place and handed to the shared [`hexastore::access`] read path.

use crate::mmap::Mmap;
use crate::{Error, Result};
use hex_dict::{Id, IdTriple};
use hexastore::access::{ArenaView, IndexView, OrderedStore, OverflowCopy, SlabOrdering};
use hexastore::hexsnap::{ArenaColumns, Column, FrozenColumns, Ints, Packed, Windows};
use hexastore::PackedView;
use hexastore::{DatasetStats, IndexKind, IndexSet, StatsSource, TripleStore};
use std::sync::Arc;

/// Column descriptors of one arena: packed slot column + packed overflow
/// column.
#[derive(Clone, Copy, Debug)]
struct ArCols {
    slots: Packed,
    over: Packed,
}

/// Column descriptors of one ordering: header keys and packed cumulative
/// offsets, packed vector keys, — mirror orderings only — packed
/// terminal-list references (leaf `i` of a primary ordering is list `i`),
/// and the index of the arena holding its lists.
#[derive(Clone, Copy, Debug)]
struct IxCols {
    keys: Column,
    offs: Packed,
    k2: Packed,
    lists: Option<Packed>,
    arena: usize,
}

/// A [`hexastore::FrozenHexastore`]-equivalent store over a mapped
/// `hexsnap` file: the slab columns are *reinterpreted in place*, so
/// opening touches only the section headers and cold-query I/O is
/// driven by page faults on exactly the columns a query walks.
///
/// Obtain one with [`crate::open`] or [`crate::open_dataset`]. It runs the
/// same read code as the in-memory frozen store — both hand
/// [`hexastore::access`] borrowed views of their columns — so the
/// planner and `Dataset` machinery work over it unchanged. Like the in-memory frozen store it is read-only
/// (`insert`/`remove` panic) and [`Clone`] is a reference-count bump on
/// the shared mapping.
///
/// # Trust model
///
/// Opening is structural and O(sections): the walk of the section's count
/// fields, then the extent and alignment of every column.
/// [`MmapFrozenHexastore::verify`] — which
/// [`crate::open`] and [`crate::open_dataset`] run, next to the
/// dictionary pass they already pay, and [`crate::open_store`] leaves to
/// its caller — adds one pass over the arenas' slot and overflow columns,
/// a quarter of the file, that checks how terminal lists are addressed.
/// The index levels' data-level invariants (sorted keys, offsets tiling,
/// list references in range, pair consistency, ids within the
/// dictionary) are *never* eagerly verified — walking them would fault
/// in the whole file, which is exactly what this type exists to avoid.
/// The views' accessors bound every window and run to its column instead
/// of panicking, so a corrupt file yields wrong answers, never undefined
/// behavior or a crash; files from untrusted writers should be opened
/// through [`hexastore::hexsnap::load_frozen`] instead, which validates
/// fully.
#[derive(Clone)]
pub struct MmapFrozenHexastore {
    map: Arc<Mmap>,
    arenas: [ArCols; 3],
    /// Each arena's `u32` overflow copy, which only
    /// [`SortedListAccess::sorted_list`](hexastore::SortedListAccess::sorted_list)
    /// decodes — the one part of the store on its heap.
    copies: [OverflowCopy; 3],
    orderings: [IxCols; 6],
    len: usize,
}

impl MmapFrozenHexastore {
    /// A store over the mapping whose `FROZ` columns `cols` locates. What
    /// is checked touches no column: the layout is the one v8 introduced
    /// (packed arenas, bit-packed index levels), every `u32` column is one
    /// the casts below may reinterpret ([`mapped`]), and every packed one
    /// lies in the mapping ([`mapped_packed`]).
    pub(crate) fn from_columns(map: &Arc<Mmap>, cols: &FrozenColumns) -> Result<Self> {
        let predates = || Error::Unmappable("the slab columns predate the mappable layout".into());
        let mapped = |col, what| mapped(map, col, what);
        let packed = |ints, what| match ints {
            Ints::Packed(col) => mapped_packed(map, col, what),
            Ints::U32(_) => Err(predates()),
        };
        let mut arenas = Vec::with_capacity(3);
        for arena in cols.arenas {
            let ArenaColumns::Slots { slots, over } = arena else { return Err(predates()) };
            arenas.push(ArCols {
                slots: packed(slots, "arena slot column")?,
                over: packed(over, "arena overflow column")?,
            });
        }
        let mut orderings = Vec::with_capacity(6);
        for ix in cols.orderings {
            let Windows::Offsets(offs) = ix.windows else { return Err(predates()) };
            orderings.push(IxCols {
                keys: mapped(ix.keys, "ordering key column")?,
                offs: packed(offs, "ordering offsets column")?,
                k2: packed(ix.k2, "ordering vector column")?,
                lists: ix.lists.map(|lists| packed(lists, "ordering list column")).transpose()?,
                arena: ix.arena,
            });
        }
        Ok(MmapFrozenHexastore {
            map: Arc::clone(map),
            arenas: arenas.try_into().expect("exactly three arenas"),
            copies: Default::default(),
            orderings: orderings.try_into().expect("exactly six orderings"),
            len: cols.triples,
        })
    }

    /// Checks, in one pass over the three arenas' columns
    /// (`O(lists + overflow words)`, about 10 of a file's 31 bytes per
    /// triple), that they are what a writer lays down
    /// ([`ArenaView::validate`]): the slot column is one flag bit above
    /// its widest value wide, every slot that is not itself a list names
    /// a run inside the overflow column, runs neither overlap nor leave a
    /// gap, each is strictly ascending, and together they hold one item
    /// per triple. A file that fails is [`Error::Corrupt`]; one that
    /// passes can still be wrong in its index levels (see the trust model
    /// above).
    pub fn verify(&self) -> Result<()> {
        for which in 0..self.arenas.len() {
            let items =
                self.arena(which).validate().map_err(|e| Error::Corrupt(format!("arena: {e}")))?;
            if items != self.len {
                return Err(Error::Corrupt(format!(
                    "arena columns hold {items} items where the section declares {} triples",
                    self.len
                )));
            }
        }
        Ok(())
    }
}

/// A column's bytes in the mapping, `width` bytes an element; `None`
/// unless the column lies inside the mapping.
pub(crate) fn column_bytes(map: &[u8], col: Column, width: usize) -> Option<&[u8]> {
    map.get(col.offset..col.offset.checked_add(col.len.checked_mul(width)?)?)
}

/// A `u32` column the casts below may reinterpret: inside the mapping and
/// 4-byte aligned. The walker bounds every column by its section and the
/// reader the section by the mapping, so the first always holds; the
/// writer starts the section on an 8-byte file offset and every field is a
/// 4-byte multiple, so the second holds for its output and rejects a
/// hand-built file whose columns would misalign the casts.
fn mapped(map: &[u8], col: Column, what: &str) -> Result<Column> {
    if column_bytes(map, col, 4).is_none() {
        return Err(Error::Corrupt(format!("{what} extends past the mapping")));
    }
    if col.offset % 4 != 0 {
        return Err(Error::Corrupt(format!("{what} is not 4-byte aligned")));
    }
    Ok(col)
}

/// A packed column the read path may view in place: inside the mapping.
/// Its image is bytes, read with unaligned loads, so there is nothing to
/// cast; the walker has already checked its width. Touches no byte of the
/// column.
fn mapped_packed(map: &[u8], col: Packed, what: &str) -> Result<Packed> {
    match column_bytes(map, Column { offset: col.offset, len: col.bytes() }, 1) {
        Some(bytes) if PackedView::new(bytes, col.width, col.len).is_ok() => Ok(col),
        _ => Err(Error::Corrupt(format!("{what} extends past the mapping"))),
    }
}

impl MmapFrozenHexastore {
    /// A packed column's bytes in the mapping, as the view the read path
    /// walks; the empty column if they do not make one, which
    /// [`mapped_packed`] ruled out at open.
    fn packed(&self, col: Packed) -> PackedView<'_> {
        let bytes = column_bytes(&self.map, Column { offset: col.offset, len: col.bytes() }, 1);
        bytes.and_then(|bytes| PackedView::new(bytes, col.width, col.len).ok()).unwrap_or_default()
    }

    /// Reinterprets a column as ids.
    fn ids(&self, col: Column) -> &[Id] {
        let bytes = column_bytes(&self.map, col, 4).expect("checked by `mapped` at open");
        // SAFETY: `bytes` is `col.len` four-byte elements inside the
        // mapping, and `mapped` rejected offsets that are not 4-aligned; the
        // mapping base is page-aligned (8-aligned on the fallback path), so
        // the pointer is aligned for `u32`. `Id` is `repr(transparent)` over
        // `u32` and any bit pattern is a valid id; the crate compiles only
        // on little-endian targets, so file order is host order. The
        // mapping lives as long as `self`.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const Id, col.len) }
    }

    /// Arena `which`'s columns as the view the shared read path walks.
    fn arena(&self, which: usize) -> ArenaView<'_> {
        let ArCols { slots, over } = self.arenas[which];
        ArenaView { slots: self.packed(slots), over: self.packed(over), copy: &self.copies[which] }
    }

    /// Bytes of file backing this store — the mapped region. The
    /// complement of [`TripleStore::heap_bytes`], which is near zero
    /// here: the columns live in the page cache, not on the heap.
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }
}

impl std::fmt::Debug for MmapFrozenHexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapFrozenHexastore")
            .field("triples", &self.len)
            .field("mapped_bytes", &self.mapped_bytes())
            .finish()
    }
}

/// All six orderings, as views over the mapped columns. Nothing in them
/// is validated beyond the open-time structural checks; the views'
/// panic-free accessors are what keeps a corrupt column from crashing a query.
impl OrderedStore for MmapFrozenHexastore {
    fn kept(&self) -> IndexSet {
        IndexSet::all()
    }

    fn ordering(&self, kind: IndexKind) -> SlabOrdering<'_> {
        // The `FROZ` walk stores the orderings in `IndexKind`'s declaration
        // order.
        let ix = self.orderings[kind as usize];
        SlabOrdering {
            index: IndexView {
                keys: self.ids(ix.keys),
                offs: self.packed(ix.offs),
                k2: self.packed(ix.k2),
                lists: ix.lists.map(|lists| self.packed(lists)),
            },
            arena: self.arena(ix.arena),
        }
    }
}

impl TripleStore for MmapFrozenHexastore {
    fn name(&self) -> &'static str {
        "MmapFrozenHexastore"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// # Panics
    ///
    /// Always — mapped stores are read-only views of the file.
    fn insert(&mut self, _: IdTriple) -> bool {
        panic!("MmapFrozenHexastore is read-only: load_frozen() and thaw() to mutate")
    }

    /// # Panics
    ///
    /// Always — mapped stores are read-only views of the file.
    fn remove(&mut self, _: IdTriple) -> bool {
        panic!("MmapFrozenHexastore is read-only: load_frozen() and thaw() to mutate")
    }

    /// Near zero by design: the columns live in the page cache behind
    /// the mapping, not on this store's heap — only the arenas' `u32`
    /// overflow copies do, once `sorted_list` has decoded them. See
    /// [`MmapFrozenHexastore::mapped_bytes`] for the file-backed size.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.copies.iter().map(OverflowCopy::heap_bytes).sum::<usize>()
    }

    hexastore::forward_reads!();
}

/// From four of the mapped orderings ([`DatasetStats::compute`]): their
/// headers, one pso and one pos division per property and the spo lists'
/// lengths, never a hashed scan of every triple — which would fault in
/// the whole file.
impl StatsSource for MmapFrozenHexastore {
    fn dataset_stats(&self) -> DatasetStats {
        DatasetStats::compute(self)
    }
}
