//! The mmap-backed frozen store: a `FROZ` section's columns reinterpreted
//! in place and handed to the shared [`hexastore::access`] read path.

use crate::cursor::Cursor;
use crate::mmap::Mmap;
use crate::{Error, Result};
use hex_dict::{Id, IdTriple};
use hexastore::access::{ArenaView, IndexView, OrderedStore, OrderingRead, SlabOrdering};
use hexastore::{IndexKind, IndexSet, StatsSource, TripleStore};
use std::sync::Arc;

/// A column inside the mapping: byte offset and element count. The
/// element width is implied by the accessor that materializes it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Col {
    off: usize,
    n: usize,
}

/// Column descriptors of one arena: slot column + overflow column.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArCols {
    slots: Col,
    over: Col,
}

/// Column descriptors of one ordering: header keys and cumulative
/// offsets, vector keys and — mirror orderings only — terminal-list
/// references (leaf `i` of a primary ordering is list `i`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct IxCols {
    keys: Col,
    offs: Col,
    k2: Col,
    lists: Option<Col>,
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
/// Parsing the section is structural and O(sections): extents, counts
/// and alignment of every column. [`MmapFrozenHexastore::verify`] — which
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
    orderings: [IxCols; 6],
    len: usize,
}

impl MmapFrozenHexastore {
    /// Parses the column descriptors of the `FROZ` section at `extent` —
    /// structural checks only, touching nothing but the section's headers
    /// — into a store over the mapping.
    pub(crate) fn open_section(map: &Arc<Mmap>, extent: (u64, u64)) -> Result<Self> {
        let mut cur = Cursor::new(map, extent, "FROZ", Error::Corrupt)?;
        let len = cur.len64("triple count")?;
        let mut arenas = Vec::with_capacity(3);
        for _ in 0..3 {
            let n_lists = cur.u32("arena list count")? as usize;
            let n_items = cur.len64("arena item count")?;
            let n_over = cur.u32("arena overflow count")? as usize;
            let slots = col(&mut cur, n_lists, "arena slot column")?;
            let over = col(&mut cur, n_over, "arena overflow column")?;
            // Every triple contributes one entry to each pair's lists; a
            // count mismatch is detectable without touching the columns.
            if n_items != len {
                return cur.corrupt("declared triple count disagrees with slab columns");
            }
            arenas.push(ArCols { slots, over });
        }
        let mut orderings = Vec::with_capacity(6);
        for kind in IndexKind::ALL {
            let h = cur.u32("ordering header count")? as usize;
            let keys = col(&mut cur, h, "ordering key column")?;
            let offs = offsets_col(&mut cur, h, "ordering offsets column")?;
            let m = cur.u32("ordering vector count")? as usize;
            let k2 = col(&mut cur, m, "ordering vector column")?;
            let lists = if kind.is_mirror() {
                Some(col(&mut cur, m, "ordering list column")?)
            } else {
                None
            };
            orderings.push(IxCols { keys, offs, k2, lists });
        }
        Ok(MmapFrozenHexastore {
            map: Arc::clone(map),
            arenas: arenas.try_into().expect("exactly three arenas"),
            orderings: orderings.try_into().expect("exactly six orderings"),
            len,
        })
    }

    /// Checks, in one pass over the three arenas' columns
    /// (`O(lists + overflow words)`, about 13 of a file's 51 bytes per
    /// triple), that they are what a writer lays down
    /// ([`ArenaView::validate`]): every slot that is not itself a list
    /// names a run inside the overflow column, runs neither overlap nor
    /// leave a gap, each is strictly ascending, and together they hold one
    /// item per triple. A file that fails is [`Error::Corrupt`]; one that
    /// passes can still be wrong in its index levels (see the trust model
    /// above).
    pub fn verify(&self) -> Result<()> {
        if self.arenas.iter().any(|&arena| self.arena(arena).validate() != Some(self.len)) {
            return Err(Error::Corrupt(
                "arena columns do not hold the declared sorted lists".to_string(),
            ));
        }
        Ok(())
    }
}

/// Takes the cumulative offsets column of `n` windows (`n + 1` entries)
/// off the cursor.
fn offsets_col(cur: &mut Cursor<'_>, n: usize, what: &str) -> Result<Col> {
    match n.checked_add(1) {
        Some(entries) => col(cur, entries, what),
        None => cur.corrupt(format!("{what} count overflows")),
    }
}

/// Takes a column of `n` four-byte elements off the cursor.
fn col(cur: &mut Cursor<'_>, n: usize, what: &str) -> Result<Col> {
    let Some(bytes) = n.checked_mul(4) else {
        return cur.corrupt(format!("{what} count overflows"));
    };
    let off = cur.offset();
    cur.take(bytes, what)?;
    // The writer starts the section on a 4-byte file offset and every
    // preceding field is a 4-byte multiple, so this always holds for its
    // output; it is what rejects a hand-built file whose columns would
    // misalign the casts below.
    if off % 4 != 0 {
        return cur.corrupt(format!("{what} is not 4-byte aligned"));
    }
    Ok(Col { off, n })
}

impl MmapFrozenHexastore {
    /// Reinterprets a column as ids.
    ///
    /// SAFETY of the cast: the parser bounds every column inside the
    /// mapping and rejects non-4-aligned offsets; the mapping base is
    /// page-aligned (8-aligned on the fallback path), so the pointer is
    /// aligned for `u32`. `Id` is `repr(transparent)` over `u32` and any
    /// bit pattern is a valid id; the crate compiles only on
    /// little-endian targets, so file order is host order.
    fn ids(&self, col: Col) -> &[Id] {
        let bytes = &self.map[col.off..col.off + col.n * 4];
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const Id, col.n) }
    }

    /// Reinterprets a column as raw `u32`s (same argument as [`Self::ids`]).
    fn u32s(&self, col: Col) -> &[u32] {
        let bytes = &self.map[col.off..col.off + col.n * 4];
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, col.n) }
    }

    /// One arena's columns as the view the shared read path walks.
    fn arena(&self, cols: ArCols) -> ArenaView<'_> {
        ArenaView { slots: self.ids(cols.slots), over: self.ids(cols.over) }
    }

    /// Sorted objects o with (s, p, o) stored — the spo/pso shared list.
    pub fn objects_for(&self, s: Id, p: Id) -> &[Id] {
        self.ordering(IndexKind::Spo).list(s, p)
    }

    /// Sorted properties p with (s, p, o) stored — the sop/osp shared list.
    pub fn properties_for(&self, s: Id, o: Id) -> &[Id] {
        self.ordering(IndexKind::Sop).list(s, o)
    }

    /// Sorted subjects s with (s, p, o) stored — the pos/ops shared list.
    pub fn subjects_for(&self, p: Id, o: Id) -> &[Id] {
        self.ordering(IndexKind::Pos).list(p, o)
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
    type Ordering<'a> = SlabOrdering<'a>;

    fn kept(&self) -> IndexSet {
        IndexSet::all()
    }

    fn ordering(&self, kind: IndexKind) -> SlabOrdering<'_> {
        // The `FROZ` walk stores the orderings in `IndexKind`'s declaration
        // order and the arenas as object, property, subject lists; paired
        // orderings (spo/pso, sop/osp, pos/ops) share one arena.
        const ARENA_OF: [usize; 6] = [0, 1, 0, 2, 1, 2];
        let ix = self.orderings[kind as usize];
        (
            IndexView {
                keys: self.ids(ix.keys),
                offs: self.u32s(ix.offs),
                k2: self.ids(ix.k2),
                lists: ix.lists.map(|lists| self.u32s(lists)),
            },
            self.arena(self.arenas[ARENA_OF[kind as usize]]),
        )
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
    /// the mapping, not on this store's heap. See
    /// [`MmapFrozenHexastore::mapped_bytes`] for the file-backed size.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    hexastore::forward_reads!();
}

impl StatsSource for MmapFrozenHexastore {}
