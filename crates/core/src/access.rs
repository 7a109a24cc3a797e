//! The one read path every hexastore variant shares.
//!
//! The paper's design is a single structure — header → sorted vector →
//! terminal list — instantiated for six key permutations, so every access
//! shape reduces to "pick an ordering, project the pattern's constants to
//! its `(k1, k2)` keys, then probe a list, walk a division, or scan". This
//! module owns that reduction once:
//!
//! - [`route`] is the only place a pattern [`Shape`] is turned into an
//!   ordering and a [`Probe`]; [`serving_kind`] is its ordering-only half,
//!   which the query planner consults so the index it names is the one the
//!   store really probes.
//! - [`SlabOrdering`] is one ordering — a borrowed [`IndexView`] plus
//!   the [`ArenaView`] its lists live in, owned or memory-mapped — and
//!   its four methods are the only way to read one: `list(k1, k2)`,
//!   `division(k1)`, `scan()` and `keys()`. Every hand-written plan of the
//!   paper ("a pos probe", "the spo property vector of s") is a call of
//!   one of them on `store.ordering(kind)`.
//! - [`contains`], [`for_each`], [`iter`], [`count`] and `sorted_list`
//!   are each written once against [`OrderedStore`] — "a store that can
//!   hand out the [`SlabOrdering`] of a kept [`IndexKind`]". The runtime
//!   `IndexKind` is matched once per call; the per-triple work is
//!   monomorphized per ordering.
//!
//! The slab stores — full, partial and memory-mapped — are storage
//! providers: they implement
//! [`OrderedStore`] and forward their [`TripleStore`]
//! read methods here with [`forward_reads!`](crate::forward_reads).
//!
//! A slab index level is a column windowed by a cumulative offsets column:
//! window `i` is `offs[i]..offs[i + 1]`, and header `i` is found by a rank
//! of the header keys ([`HeadersView::rank`]) and its window searched,
//! iterated or sought through as packed or Elias–Fano coded vector keys
//! ([`KeysView`], [`crate::succinct`]); a terminal list is a slot of its
//! arena or a run of the arena's key column ([`ArenaView`], whose
//! encoding [`crate::slab`] owns). The slab views clamp windows and runs
//! instead of panicking. In-memory slabs are validated when they are
//! built, so clamping never triggers there; the `hex-disk` crate hands out
//! the same views over memory-mapped columns, whose index levels it
//! deliberately does not validate and whose bytes can change under it,
//! where a corrupt offset must degrade to a short (possibly wrong,
//! possibly empty) answer rather than a crash.

use crate::advisor::{serving_indices, IndexKind, IndexSet};
pub use crate::packed::PackedView;
use crate::pattern::{IdPattern, Shape};
pub use crate::slab::{ArenaCopy, ArenaView, List};
pub use crate::succinct::{HeadersView, Keys, KeysView, OffsetsView};
use crate::traits::{TripleIter, TripleStore};
use hex_dict::{Id, IdTriple};
use std::ops::Range;

/// Projects a triple into an ordering's `(k1, k2, item)` key order.
#[inline]
pub fn project(kind: IndexKind, t: IdTriple) -> (Id, Id, Id) {
    match kind {
        IndexKind::Spo => (t.s, t.p, t.o),
        IndexKind::Sop => (t.s, t.o, t.p),
        IndexKind::Pso => (t.p, t.s, t.o),
        IndexKind::Pos => (t.p, t.o, t.s),
        IndexKind::Osp => (t.o, t.s, t.p),
        IndexKind::Ops => (t.o, t.p, t.s),
    }
}

/// Reassembles a triple from an ordering's `(k1, k2, item)`.
#[inline]
pub fn unproject(kind: IndexKind, k1: Id, k2: Id, item: Id) -> IdTriple {
    match kind {
        IndexKind::Spo => IdTriple::new(k1, k2, item),
        IndexKind::Sop => IdTriple::new(k1, item, k2),
        IndexKind::Pso => IdTriple::new(k2, k1, item),
        IndexKind::Pos => IdTriple::new(item, k1, k2),
        IndexKind::Osp => IdTriple::new(k2, item, k1),
        IndexKind::Ops => IdTriple::new(item, k2, k1),
    }
}

/// The kept ordering that answers `shape` with a single probe: the first
/// member of [`serving_indices`]`(shape)` in canonical
/// ([`IndexKind::ALL`]) order that `kept` contains, or `None` when every
/// serving ordering was dropped and the store must filter a scan.
///
/// With the full sextuple set this is spo for `(s,p,?)`, `(s,?,?)`,
/// membership and the full scan; sop for `(s,?,o)`; pos for `(?,p,o)`;
/// pso for `(?,p,?)`; osp for `(?,?,o)`.
#[inline]
pub fn serving_kind(shape: Shape, kept: IndexSet) -> Option<IndexKind> {
    serving_indices(shape).intersection(kept).first()
}

/// What to do inside the routed ordering. Keys are already projected to
/// the ordering's own order: `k1` the header key, `k2` the vector key,
/// `item` a terminal-list entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Three constants `(k1, k2, item)`: binary-search `item` in the
    /// `(k1, k2)` list.
    Member(Id, Id, Id),
    /// Two constants `(k1, k2)` the ordering lists first: one terminal list.
    List(Id, Id),
    /// One constant `k1` heading the ordering: every list of its division.
    Division(Id),
    /// No constants: the whole ordering.
    Scan,
    /// No kept ordering serves the shape: scan and filter — the cost of a
    /// dropped index, made explicit.
    FilteredScan,
}

/// A pattern resolved against a kept ordering set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route {
    /// The ordering to read.
    pub kind: IndexKind,
    /// How to read it.
    pub probe: Probe,
}

/// Resolves a pattern to the ordering and probe that answer it.
///
/// # Panics
///
/// If `kept` is empty — every store keeps at least one ordering.
#[inline(always)]
pub fn route(pat: IdPattern, kept: IndexSet) -> Route {
    let (kind, served) = resolve(pat.shape(), kept);
    Route { kind, probe: probe_in(kind, pat, served) }
}

/// The ordering to read for `shape` — the serving one, or the first kept
/// for the filtered-scan fallback — and whether it serves the shape.
#[inline]
fn resolve(shape: Shape, kept: IndexSet) -> (IndexKind, bool) {
    match serving_kind(shape, kept) {
        Some(kind) => (kind, true),
        None => (kept.first().expect("a store keeps at least one ordering"), false),
    }
}

/// The probe `pat` presents to ordering `kind`. Inlined so that it folds
/// to a key shuffle wherever `kind` is a constant.
#[inline(always)]
fn probe_in(kind: IndexKind, pat: IdPattern, served: bool) -> Probe {
    if !served {
        return Probe::FilteredScan;
    }
    // Free positions project to a placeholder that the probe never reads:
    // a serving ordering lists the bound positions first.
    let free = Id(0);
    let (k1, k2, item) = project(
        kind,
        IdTriple::new(pat.s.unwrap_or(free), pat.p.unwrap_or(free), pat.o.unwrap_or(free)),
    );
    match pat.bound_count() {
        3 => Probe::Member(k1, k2, item),
        2 => Probe::List(k1, k2),
        1 => Probe::Division(k1),
        _ => Probe::Scan,
    }
}

/// Window `i` of a cumulative offsets column, clamped to a column of `n`
/// elements: one pair read ([`OffsetsView::pair`]). A window past the end
/// of `offs`, or one a corrupt coded column cannot read, is empty; an end
/// beyond `n` is cut to `n`; a corrupt, non-monotone pair (`offs[i] >
/// offs[i + 1]`) is empty — never a `lo > hi` range.
#[inline]
fn window_of(offs: OffsetsView<'_>, i: usize, n: usize) -> Range<usize> {
    let Some((lo, hi)) = offs.pair(i) else { return 0..0 };
    let hi = (hi as usize).min(n);
    (lo as usize).min(hi)..hi
}

/// Borrowed columns of one flat two-level ordering: the header keys — a
/// presence bitmap with its rank directory, or one Elias–Fano window —
/// the cumulative `offs` that
/// window the `k2` column per header (one entry more than headers; packed,
/// or one Elias–Fano window), the
/// vector keys — packed or Elias–Fano coded ([`crate::succinct`]) — and
/// the terminal-list reference of each leaf. `Copy`, so cursor closures
/// own it outright.
#[derive(Clone, Copy, Debug)]
pub struct IndexView<'a> {
    /// The header keys: header `h` is the `h`-th key.
    pub keys: HeadersView<'a>,
    /// Header `h`'s leaves are `offs[h]..offs[h + 1]` of `k2`.
    pub offs: OffsetsView<'a>,
    /// Vector keys, sorted within each header's window.
    pub k2: KeysView<'a>,
    /// Terminal-list index per leaf, into the ordering's arena; windowed
    /// by `offs` as `k2` is, strictly ascending within each window, and
    /// packed or Elias–Fano coded as vector keys are. `None` for a
    /// *primary* ordering — the one whose leaf order is the arena's list
    /// order — where leaf `i` is list `i` and the column would be the
    /// identity.
    pub lists: Option<KeysView<'a>>,
}

/// The list a leaf whose reference cannot be read names: an index past
/// every slot column (a list index is below 2^32), which
/// [`ArenaView::get`] reads as the empty list — not list 0, which is
/// another key's list.
const MISSING: u32 = u32::MAX;

impl<'a> IndexView<'a> {
    /// The clamped leaf window of header number `h`.
    #[inline]
    fn window_at(self, h: usize) -> Range<usize> {
        window_of(self.offs, h, self.k2.len())
    }

    /// The header number of `k1` — one rank of the header keys — and its
    /// clamped leaf window. An absent header or a corrupt offset
    /// yields a short (possibly empty) window, never a panic.
    #[inline]
    fn window(self, k1: Id) -> (usize, Range<usize>) {
        self.keys.rank(k1).map_or((0, 0..0), |h| (h, self.window_at(h)))
    }

    /// The terminal-list index of leaf `i` of header `h`'s `window`: a
    /// reference that does not read is [`MISSING`].
    #[inline]
    fn list_at(self, h: usize, window: Range<usize>, i: usize) -> u32 {
        match self.lists {
            Some(lists) => lists.get(h, window, i).unwrap_or(MISSING),
            None => (window.start + i) as u32,
        }
    }

    /// The `(k2, list)` leaves of header `h`'s `window`, decoded
    /// sequentially; a reference that does not read is [`MISSING`].
    #[inline]
    pub(crate) fn leaves(
        self,
        h: usize,
        window: Range<usize>,
    ) -> impl Iterator<Item = (Id, u32)> + 'a {
        let mut refs = self.lists.map(|lists| lists.iter(h, window.clone()));
        let start = window.start as u32;
        self.k2.iter(h, window).enumerate().map(move |(i, k2)| {
            let list = match &mut refs {
                Some(refs) => refs.next().unwrap_or(MISSING),
                None => start.wrapping_add(i as u32),
            };
            (Id(k2), list)
        })
    }

    /// The terminal-list index of `(k1, k2)`: a rank of the header keys
    /// and a search of the header's vector keys.
    #[inline]
    pub fn list_idx(self, k1: Id, k2: Id) -> Option<u32> {
        let (h, window) = self.window(k1);
        self.k2.search(h, window.clone(), k2.0).ok().map(|i| self.list_at(h, window, i))
    }
}

/// One slab-backed ordering: its index columns and the arena its list
/// indices point into. `Copy`, so cursors own it outright. Lists are
/// sorted and duplicate-free; `division` and `scan` yield in key order.
#[derive(Clone, Copy, Debug)]
pub struct SlabOrdering<'a> {
    /// The header, vector-key and list-reference columns.
    pub index: IndexView<'a>,
    /// The terminal lists the index's leaves reference.
    pub arena: ArenaView<'a>,
}

impl<'a> SlabOrdering<'a> {
    /// The terminal list keyed `(k1, k2)`; empty if absent.
    #[inline]
    pub fn list(self, k1: Id, k2: Id) -> List<'a> {
        self.index.list_idx(k1, k2).map_or(List::EMPTY, |l| self.arena.get(l))
    }

    /// The `(k2, list)` leaves under header `k1`, ascending in `k2`.
    pub fn division(self, k1: Id) -> impl Iterator<Item = (Id, List<'a>)> + 'a {
        let Self { index, arena } = self;
        let (h, window) = index.window(k1);
        index.leaves(h, window).map(move |(k2, list)| (k2, arena.get(list)))
    }

    /// The number of ids under header `k1`: the lengths of its lists,
    /// read without handing a list out — a primary's, whose leaf `i` is
    /// list `i`, all at once ([`ArenaView::len_of_lists`]), a mirror's one
    /// by one.
    pub fn division_len(self, k1: Id) -> usize {
        let Self { index, arena } = self;
        let (h, window) = index.window(k1);
        match index.lists {
            None => arena.len_of_lists(window),
            Some(_) => index.leaves(h, window).map(|(_, list)| arena.len_of(list)).sum(),
        }
    }

    /// Every `(k1, k2, list)` leaf, ascending in `(k1, k2)`.
    pub fn scan(self) -> impl Iterator<Item = (Id, Id, List<'a>)> + 'a {
        let Self { index, arena } = self;
        index.keys.keys().enumerate().flat_map(move |(h, k1)| {
            index.leaves(h, index.window_at(h)).map(move |(k2, list)| (k1, k2, arena.get(list)))
        })
    }

    /// The sorted, distinct header keys — the subjects of spo, the
    /// properties of pso, the objects of osp — decoded as they are read.
    /// Its length is the header count, and [`Keys::contains`] is a rank.
    #[inline]
    pub fn keys(self) -> Keys<'a> {
        self.index.keys.keys()
    }
}

/// A store that can hand out the slab columns of each ordering it keeps.
/// Everything on the read side of [`TripleStore`] follows from these two
/// methods and [`TripleStore::len`].
pub trait OrderedStore: TripleStore {
    /// The orderings this store keeps; never empty.
    fn kept(&self) -> IndexSet;

    /// The ordering `kind`.
    ///
    /// # Panics
    ///
    /// If [`Self::kept`] does not contain `kind`: asking a store for an
    /// ordering it never built is a programming error, not bad input.
    fn ordering(&self, kind: IndexKind) -> SlabOrdering<'_>;
}

/// One ordering's key permutation as a type: operations generic over it
/// are monomorphized per ordering, so [`unproject`]'s match on the kind
/// constant-folds away instead of running once per triple.
trait KeyOrder: 'static {
    const KIND: IndexKind;

    #[inline(always)]
    fn triple(k1: Id, k2: Id, item: Id) -> IdTriple {
        unproject(Self::KIND, k1, k2, item)
    }
}

/// Matches the runtime [`IndexKind`] once and evaluates `$body` with `$O`
/// bound to that ordering's [`KeyOrder`] type.
macro_rules! per_order {
    ($kind:expr, $O:ident => $body:expr) => {
        per_order!(@arms $kind, $O, $body, Spo Sop Pso Pos Osp Ops)
    };
    (@arms $kind:expr, $O:ident, $body:expr, $($name:ident)*) => {
        match $kind {
            $(IndexKind::$name => {
                struct $O;
                impl KeyOrder for $O {
                    const KIND: IndexKind = IndexKind::$name;
                }
                $body
            })*
        }
    };
}

/// Routes `$pat` on `$store`, matches the routed [`IndexKind`] once, and
/// evaluates `$body` with `$O` bound to its [`KeyOrder`], `$ord` to the
/// store's ordering and `$probe` to the probe. Inside an arm the kind is
/// a constant, so the key projection and the store's ordering lookup fold
/// away: a read pays one dispatch on the ordering and one on the probe.
macro_rules! routed {
    ($store:expr, $pat:expr, |$O:ident, $ord:ident, $probe:ident| $body:expr) => {{
        let (kind, served) = resolve($pat.shape(), $store.kept());
        per_order!(kind, $O => {
            let $ord = $store.ordering($O::KIND);
            let $probe = probe_in($O::KIND, $pat, served);
            $body
        })
    }};
}

/// Membership test: one list probe in the first kept ordering. Kept a
/// straight line — with the shape known the route folds to constants on a
/// full store — because the overlay store asks this once per base triple
/// it yields.
#[inline]
pub fn contains<S: OrderedStore>(store: &S, t: IdTriple) -> bool {
    let Route { kind, probe: Probe::Member(k1, k2, item) } = route(IdPattern::spo(t), store.kept())
    else {
        unreachable!("a fully bound pattern routes to a membership probe")
    };
    store.ordering(kind).list(k1, k2).contains(item)
}

/// What a read hands its matches to.
trait Deliver<'a> {
    type Out;
    fn deliver(self, triples: impl Iterator<Item = IdTriple> + 'a) -> Self::Out;
}

/// Boxed up as a lazy cursor: the caller pulls.
struct Lazy;

impl<'a> Deliver<'a> for Lazy {
    type Out = TripleIter<'a>;

    fn deliver(self, triples: impl Iterator<Item = IdTriple> + 'a) -> TripleIter<'a> {
        Box::new(triples)
    }
}

/// Pushed through a visitor. Internal iteration runs the nested adaptors
/// as plain nested loops: no boxing, and no dynamic dispatch per triple
/// beyond the callback itself.
impl<'a> Deliver<'a> for &mut dyn FnMut(IdTriple) {
    type Out = ();

    fn deliver(self, triples: impl Iterator<Item = IdTriple> + 'a) {
        triples.for_each(self)
    }
}

/// Every triple of an ordering, in its key order.
fn scan_triples<O: KeyOrder>(ord: SlabOrdering<'_>) -> impl Iterator<Item = IdTriple> + '_ {
    ord.scan().flat_map(|(k1, k2, list)| list.into_iter().map(move |item| O::triple(k1, k2, item)))
}

/// The one enumeration of a probe's matches, in the ordering's key order.
fn matches<'a, O: KeyOrder, D: Deliver<'a>>(
    ord: SlabOrdering<'a>,
    probe: Probe,
    pat: IdPattern,
    to: D,
) -> D::Out {
    match probe {
        Probe::Member(k1, k2, item) => {
            let found = ord.list(k1, k2).contains(item);
            to.deliver(found.then(|| O::triple(k1, k2, item)).into_iter())
        }
        Probe::List(k1, k2) => {
            to.deliver(ord.list(k1, k2).into_iter().map(move |item| O::triple(k1, k2, item)))
        }
        Probe::Division(k1) => {
            to.deliver(ord.division(k1).flat_map(move |(k2, list)| {
                list.into_iter().map(move |item| O::triple(k1, k2, item))
            }))
        }
        Probe::Scan => to.deliver(scan_triples::<O>(ord)),
        Probe::FilteredScan => to.deliver(scan_triples::<O>(ord).filter(move |&t| pat.matches(t))),
    }
}

/// Visits every matching triple, in the routed ordering's key order.
pub fn for_each<S: OrderedStore>(store: &S, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
    routed!(store, pat, |O, ord, probe| matches::<O, _>(ord, probe, pat, f))
}

/// Lazy cursor over the matching triples, in [`for_each`]'s order.
pub fn iter<S: OrderedStore>(store: &S, pat: IdPattern) -> TripleIter<'_> {
    routed!(store, pat, |O, ord, probe| matches::<O, _>(ord, probe, pat, Lazy))
}

/// Number of matching triples. Served shapes count by list lengths — no
/// triple is visited; only the filtered-scan fallback walks.
pub fn count<S: OrderedStore>(store: &S, pat: IdPattern) -> usize {
    routed!(store, pat, |O, ord, probe| match probe {
        Probe::Member(k1, k2, item) => usize::from(ord.list(k1, k2).contains(item)),
        Probe::List(k1, k2) => ord.list(k1, k2).len(),
        Probe::Division(k1) => division_count(store, pat).unwrap_or_else(|| ord.division_len(k1)),
        Probe::Scan => store.len(),
        // The fallback walks anyway: keep its cursor out of line so the
        // served arms stay a small function.
        Probe::FilteredScan => iter(store, pat).count(),
    })
}

/// The number of triples matching `pat`, a one-constant shape, read from
/// a kept primary ordering that serves it, if any: every serving ordering
/// holds the same triples under the constant, and a primary's lists are
/// consecutive ([`SlabOrdering::division_len`]), where a mirror's are
/// read one by one.
fn division_count<S: OrderedStore>(store: &S, pat: IdPattern) -> Option<usize> {
    let serving = serving_indices(pat.shape()).intersection(store.kept());
    serving.iter().find_map(|kind| {
        let ord = store.ordering(kind);
        match probe_in(kind, pat, true) {
            Probe::Division(k1) if ord.index.lists.is_none() => Some(ord.division_len(k1)),
            _ => None,
        }
    })
}

/// Expands, inside an `impl TripleStore for` block of an [`OrderedStore`],
/// to the read-side methods — `contains`, `for_each_matching`,
/// `iter_matching`, `capabilities`, `count_matching`, `sorted_lists` —
/// each forwarding to this module. The store writes only `name`, `len`,
/// `insert`, `remove` and `heap_bytes` itself, and keeps the trait's
/// provided `iter_matching_range`.
/// ([`SortedListAccess`](crate::SortedListAccess) comes from a blanket
/// impl over [`OrderedStore`].) The expansion names `::hex_dict::IdTriple`,
/// so the invoking crate must depend on `hex_dict`.
#[macro_export]
macro_rules! forward_reads {
    () => {
        #[inline]
        fn contains(&self, t: ::hex_dict::IdTriple) -> bool {
            $crate::access::contains(self, t)
        }

        fn for_each_matching(
            &self,
            pat: $crate::IdPattern,
            f: &mut dyn FnMut(::hex_dict::IdTriple),
        ) {
            $crate::access::for_each(self, pat, f)
        }

        fn iter_matching(&self, pat: $crate::IdPattern) -> $crate::TripleIter<'_> {
            $crate::access::iter(self, pat)
        }

        fn capabilities(&self) -> $crate::IndexSet {
            $crate::access::OrderedStore::kept(self)
        }

        fn count_matching(&self, pat: $crate::IdPattern) -> usize {
            $crate::access::count(self, pat)
        }

        fn sorted_lists(&self) -> Option<&dyn $crate::SortedListAccess> {
            Some(self)
        }
    };
}

impl<S: OrderedStore> crate::traits::SortedListAccess for S {
    /// [`list`](crate::traits::SortedListAccess::list) as a borrowed
    /// slice of a `u32` copy of the list's arena ([`ArenaView::lend`]):
    /// a longer list's run of the copy of the key column, a singleton
    /// the one-id window of the copy of the slot column, each decoded by
    /// the first call that needs it. Kept for callers that need a slice;
    /// the engine reads `list`.
    fn sorted_list(&self, pat: IdPattern) -> Option<&[Id]> {
        let Route { kind, probe: Probe::List(k1, k2) } = route(pat, self.kept()) else {
            return None;
        };
        let ord = self.ordering(kind);
        match ord.index.list_idx(k1, k2) {
            Some(idx) if !ord.arena.get(idx).is_empty() => ord.arena.lend(idx),
            _ => Some(&[]),
        }
    }

    /// The terminal list behind a two-constant pattern — the values of its
    /// free position, exactly the [`iter`] cursor's projection — or `None`
    /// for other shapes and when no kept ordering serves the pair.
    fn list(&self, pat: IdPattern) -> Option<List<'_>> {
        match route(pat, self.kept()) {
            Route { kind, probe: Probe::List(k1, k2) } => Some(self.ordering(kind).list(k1, k2)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(kinds: &[IndexKind]) -> IndexSet {
        kinds.iter().fold(IndexSet::EMPTY, |s, &k| s.with(k))
    }

    #[test]
    fn full_set_routes_reproduce_the_canonical_table() {
        let (s, p, o) = (Id(1), Id(2), Id(3));
        let t = IdTriple::new(s, p, o);
        let all = IndexSet::all();
        use IndexKind::*;
        for (pat, kind, probe) in [
            (IdPattern::spo(t), Spo, Probe::Member(s, p, o)),
            (IdPattern::sp(s, p), Spo, Probe::List(s, p)),
            (IdPattern::so(s, o), Sop, Probe::List(s, o)),
            (IdPattern::po(p, o), Pos, Probe::List(p, o)),
            (IdPattern::s(s), Spo, Probe::Division(s)),
            (IdPattern::p(p), Pso, Probe::Division(p)),
            (IdPattern::o(o), Osp, Probe::Division(o)),
            (IdPattern::ALL, Spo, Probe::Scan),
        ] {
            assert_eq!(route(pat, all), Route { kind, probe }, "{pat:?}");
        }
    }

    #[test]
    fn mirror_orderings_serve_with_swapped_keys_and_dropped_ones_fall_back() {
        let (s, p, o) = (Id(1), Id(2), Id(3));
        use IndexKind::*;
        // pso reaches the (s, p) list with its keys swapped.
        assert_eq!(
            route(IdPattern::sp(s, p), set(&[Pso, Ops])),
            Route { kind: Pso, probe: Probe::List(p, s) }
        );
        // Membership and the full scan use the first kept ordering.
        assert_eq!(
            route(IdPattern::spo(IdTriple::new(s, p, o)), set(&[Pos, Ops])),
            Route { kind: Pos, probe: Probe::Member(p, o, s) }
        );
        assert_eq!(route(IdPattern::ALL, set(&[Osp])), Route { kind: Osp, probe: Probe::Scan });
        // Neither sop nor osp kept: (s, ?, o) filters a scan of the first.
        assert_eq!(serving_kind(Shape::So, set(&[Pso, Ops])), None);
        assert_eq!(
            route(IdPattern::so(s, o), set(&[Pso, Ops])),
            Route { kind: Pso, probe: Probe::FilteredScan }
        );
    }

    #[test]
    fn project_and_unproject_are_inverse_for_every_ordering() {
        let t = IdTriple::from((7, 8, 9));
        for kind in IndexKind::ALL {
            let (k1, k2, item) = project(kind, t);
            assert_eq!(unproject(kind, k1, k2, item), t, "{kind:?}");
        }
    }

    #[test]
    fn slab_views_clamp_corrupt_offsets_instead_of_panicking() {
        use crate::packed::PackedColumn;
        use crate::succinct::KeyColumn;
        let keys = crate::succinct::HeaderColumn::from_sorted(&[Id(1), Id(2), Id(3)]);
        // Header 1's window runs past the leaf column; header 2's is
        // backwards (9 > 1); header 3 has no closing offset at all.
        let offs = PackedColumn::from_values(&[0, 9, 1]);
        let k2 = PackedColumn::from_values(&[5, 6]);
        // Slots 2 bits wide, the flag bit 2: list 0 is run 0, whose end
        // overruns the key column; list 1 names run 1, past the run ends.
        let (ends, run_keys) = (PackedColumn::from_values(&[0, 40]), [10, 11]);
        let run_keys = KeyColumn::Packed(PackedColumn::from_values(&run_keys));
        let slots = PackedColumn::from_values(&[2, 2 | 1]);
        let lists = PackedColumn::from_values(&[0, 7]); // list 7 does not exist
        let copy = ArenaCopy::default();
        let arena = ArenaView {
            slots: slots.view(),
            ends: ends.view().into(),
            keys: run_keys.borrowed(),
            copy: &copy,
        };
        let k2 = KeysView::Packed(k2.view());
        let lists = Some(KeysView::Packed(lists.view()));
        let ix = IndexView { keys: keys.view(), offs: offs.view().into(), k2, lists };
        let ord = SlabOrdering { index: ix, arena };
        assert_eq!(ord.list(Id(1), Id(5)), &[Id(10), Id(11)], "list run clamped to the column");
        assert_eq!(ord.list(Id(1), Id(6)), &[] as &[Id], "dangling list index reads empty");
        assert_eq!(ord.list(Id(2), Id(5)), &[] as &[Id], "backwards header window reads empty");
        assert_eq!(ord.list(Id(3), Id(5)), &[] as &[Id], "unclosed header window reads empty");
        assert_eq!(ord.division(Id(1)).count(), 2);
        assert_eq!(ord.division(Id(2)).count(), 0);
        assert_eq!(ord.scan().count(), 2);
        // A primary ordering reads leaf i as list i: leaf 1 is the list
        // whose run is past the run ends, which reads empty.
        let primary = SlabOrdering { index: IndexView { lists: None, ..ix }, arena };
        assert_eq!(primary.list(Id(1), Id(5)), &[Id(10), Id(11)]);
        assert_eq!(primary.list(Id(1), Id(6)), &[] as &[Id], "dangling run");
        assert_eq!(primary.scan().map(|(_, _, list)| list.len()).sum::<usize>(), 2);
        // A reference that does not read names no list — not list 0, which
        // is another key's: a packed column shorter than the leaves, and
        // an Elias–Fano window whose bit offset is past its stream, which
        // reads as its first reference alone.
        let short = PackedColumn::from_values(&[1]);
        let coded =
            crate::succinct::EfColumn::from_windows(&[0, 1], &PackedColumn::from_values(&[0, 2]));
        let past = PackedColumn::from_values(&[100, 200]);
        let corrupt = crate::succinct::EfView { offs: past.view().into(), ..coded.view() };
        for (refs, first) in
            [(KeysView::Packed(short.view()), 1), (KeysView::EliasFano(corrupt), 0)]
        {
            let ord = SlabOrdering { index: IndexView { lists: Some(refs), ..ix }, arena };
            let read: Vec<Vec<Id>> = ord.division(Id(1)).map(|(_, list)| list.to_vec()).collect();
            assert_eq!(read[0], arena.get(first).to_vec(), "the first leaf reads list {first}");
            assert_eq!(read[1], &[] as &[Id], "the unread reference reads empty");
            assert_eq!(ord.list(Id(1), Id(6)), &[] as &[Id], "a probe of it too");
            assert_eq!(ord.scan().count(), 2);
        }
        // Every other way a slot or a run end can be wrong, in slots 4 bits
        // wide (flag 8), over a key column packed and Elias–Fano coded: a
        // backwards run, a run cut to the column, a run starting past it,
        // and runs past the run ends. Wrong answers are allowed; panics are
        // not.
        let (keys, ends) = ([5, 7, 9], PackedColumn::from_values(&[0, 2, 3]));
        let coded = crate::succinct::EfColumn::from_windows(&keys, &ends);
        let ends = PackedColumn::from_values(&[0, 2, 1, 9, 3]);
        let slots = PackedColumn::from_values(&[8, 9, 10, 11, 12, 15]);
        for run_keys in
            [KeyColumn::Packed(PackedColumn::from_values(&keys)), KeyColumn::EliasFano(coded)]
        {
            let packed = matches!(run_keys, KeyColumn::Packed(_));
            let arena = ArenaView {
                slots: slots.view(),
                ends: ends.view().into(),
                keys: run_keys.borrowed(),
                copy: &copy,
            };
            let read: Vec<List<'_>> = (0..slots.len() as u32 + 1).map(|l| arena.get(l)).collect();
            for list in &read {
                let _ = (list.to_vec(), list.first(), list.last(), list.search(Id(7)));
                let _ = (list.seek(1, Id(8)), arena.lend(0));
            }
            assert!(read[4..].iter().all(|list| list.is_empty()), "runs past the run ends");
            assert!(read[1].is_empty() && read[3].is_empty(), "backwards runs");
            if packed {
                assert_eq!(read[0], &[Id(5), Id(7)]);
                assert_eq!(read[2], &[Id(7), Id(9)], "a run cut to the column");
            }
            assert!(arena.validate().is_err());
        }
        // A packed read past the slot column is 0; a list past it is still
        // empty, not the singleton `Id(0)` — nor is any list of a column
        // that claims slots but no bits for them.
        let (slots, none) = (PackedView::new(&[], 0, 3).unwrap(), KeyColumn::default());
        let ends = PackedView::EMPTY.into();
        let zeros = ArenaView { slots, ends, keys: none.borrowed(), copy: &copy };
        assert_eq!(zeros.get(0), &[Id(0)], "width 0 reads zeros, wrong but safe");
        assert!(zeros.get(3).is_empty() && zeros.validate().is_err());
    }
}
