//! The mmap-backed frozen store: the `FROZ` columns
//! [`hexastore::hexsnap::Reader::frozen_columns`] locates, viewed in place
//! and handed to the shared [`hexastore::access`] read path.

use crate::mmap::Mmap;
use crate::{Error, Result};
use hex_dict::IdTriple;
use hexastore::access::{ArenaCopy, ArenaView, IndexView, OrderedStore, SlabOrdering};
use hexastore::hexsnap::{
    ArenaColumns, Column, EfColumns, FrozenColumns, Headers, Ints, Packed, VectorKeys, Windows,
};
use hexastore::succinct::{BitmapView, BitsView, EfView, HeadersView, KeysView};
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

/// Column descriptors of one ordering: the header keys (a bitmap and its
/// rank directory, or one Elias–Fano window) and their count, packed
/// cumulative offsets, the vector keys (packed, or Elias–Fano windows), —
/// mirror orderings only — packed terminal-list references (leaf `i` of
/// a primary ordering is list `i`), and the index of the arena holding
/// its lists. Every column is packed and checked to lie in the mapping.
#[derive(Clone, Copy, Debug)]
struct IxCols {
    keys: Headers,
    offs: Packed,
    k2: VectorKeys,
    lists: Option<Packed>,
    arena: usize,
}

/// A [`hexastore::FrozenHexastore`]-equivalent store over a mapped
/// `hexsnap` file: the slab columns are *viewed in place* — every one a
/// packed column or a bit stream read with unaligned little-endian loads,
/// rank directories included, so nothing is rebuilt — so opening touches
/// only the section headers and cold-query I/O is driven by page faults
/// on exactly the columns a query walks.
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
/// fields, then the extent of every column.
/// [`MmapFrozenHexastore::verify`] — which
/// [`crate::open`] and [`crate::open_dataset`] run, next to the
/// dictionary pass they already pay, and [`crate::open_store`] leaves to
/// its caller — adds one pass over the arenas' slot and overflow columns,
/// a quarter of the file, that checks how terminal lists are addressed.
/// The index levels' data-level invariants (sorted keys, offsets tiling,
/// Elias–Fano windows that decode to their keys, rank samples that agree
/// with their bits, list references in range, pair consistency, ids
/// within the dictionary) are *never* eagerly verified — walking them
/// would fault in the whole file, which is exactly what this type exists
/// to avoid. The views' accessors bound every window, run and select to
/// its column instead of panicking, so a corrupt file yields wrong answers
/// (a short window, an absent header), never undefined behavior, a crash
/// or an unbounded scan; files from untrusted writers should be opened
/// through [`hexastore::hexsnap::load_frozen`] instead, which validates
/// fully.
#[derive(Clone)]
pub struct MmapFrozenHexastore {
    map: Arc<Mmap>,
    arenas: [ArCols; 3],
    /// Each arena's `u32` copies of its columns, which only
    /// [`SortedListAccess::sorted_list`](hexastore::SortedListAccess::sorted_list)
    /// decodes — the one part of the store on its heap.
    copies: [ArenaCopy; 3],
    orderings: [IxCols; 6],
    len: usize,
}

impl MmapFrozenHexastore {
    /// A store over the mapping whose `FROZ` columns `cols` locates. What
    /// is checked touches no column: the layout is the one v9 introduced
    /// (packed arenas and index levels, header bitmaps, Elias–Fano or
    /// packed vector keys), and every column lies in the mapping
    /// ([`mapped_packed`]). The rank directories are the file's: nothing
    /// is rebuilt.
    pub(crate) fn from_columns(map: &Arc<Mmap>, cols: &FrozenColumns) -> Result<Self> {
        let predates = || Error::Unmappable("the slab columns predate the mappable layout".into());
        let mapped = |col, what: &str| mapped_packed(map, col, what);
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
            let ef = |ef: EfColumns, what: &'static str| -> Result<EfColumns> {
                Ok(EfColumns {
                    base: mapped(ef.base, what)?,
                    offs: mapped(ef.offs, what)?,
                    stream: mapped(ef.stream, what)?,
                    ranks: mapped(ef.ranks, what)?,
                })
            };
            let keys = match ix.keys {
                Headers::U32(_) => return Err(predates()),
                Headers::Bitmap { bits, ranks, count } => Headers::Bitmap {
                    bits: mapped(bits, "ordering header bitmap")?,
                    ranks: mapped(ranks, "ordering header rank directory")?,
                    count,
                },
                Headers::EliasFano { ef: cols, count } => {
                    Headers::EliasFano { ef: ef(cols, "ordering header window")?, count }
                }
            };
            let k2 = match ix.k2 {
                VectorKeys::Ints(ints) => {
                    VectorKeys::Ints(Ints::Packed(packed(ints, "ordering vector column")?))
                }
                VectorKeys::EliasFano(cols) => {
                    VectorKeys::EliasFano(ef(cols, "ordering vector keys")?)
                }
            };
            orderings.push(IxCols {
                keys,
                offs: packed(offs, "ordering offsets column")?,
                k2,
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
fn column_bytes(map: &[u8], col: Column, width: usize) -> Option<&[u8]> {
    map.get(col.offset..col.offset.checked_add(col.len.checked_mul(width)?)?)
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

    /// An Elias–Fano column of `len` keys as the view the read path walks.
    fn ef(&self, ef: EfColumns, len: usize) -> EfView<'_> {
        EfView {
            base: self.packed(ef.base),
            offs: self.packed(ef.offs),
            stream: BitsView { bits: self.packed(ef.stream), ranks: self.packed(ef.ranks) },
            len,
        }
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
        let offs = self.packed(ix.offs);
        let keys = match ix.keys {
            Headers::Bitmap { bits, ranks, count } => HeadersView::Bitmap(BitmapView {
                bits: BitsView { bits: self.packed(bits), ranks: self.packed(ranks) },
                ones: count,
            }),
            Headers::EliasFano { ef, count } => HeadersView::EliasFano(self.ef(ef, count)),
            Headers::U32(_) => HeadersView::default(),
        };
        let k2 = match ix.k2 {
            VectorKeys::Ints(Ints::Packed(col)) => KeysView::Packed(self.packed(col)),
            VectorKeys::Ints(Ints::U32(_)) => KeysView::default(),
            VectorKeys::EliasFano(ef) => {
                KeysView::EliasFano(self.ef(ef, offs.get(offs.len().saturating_sub(1)) as usize))
            }
        };
        SlabOrdering {
            index: IndexView { keys, offs, k2, lists: ix.lists.map(|lists| self.packed(lists)) },
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
    /// copies do, once `sorted_list` has decoded them. See
    /// [`MmapFrozenHexastore::mapped_bytes`] for the file-backed size.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.copies.iter().map(ArenaCopy::heap_bytes).sum::<usize>()
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
