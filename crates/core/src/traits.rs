//! The common interface every triple store in the workspace implements.
//!
//! The paper compares four physical designs — a triples table, COVP1,
//! COVP2 and the Hexastore — on identical workloads. [`TripleStore`] is the
//! shared contract that lets the query engine, the benchmark queries and
//! the equivalence tests run against any of them.

use crate::advisor::IndexSet;
use crate::pattern::IdPattern;
use crate::slab::List;
use hex_dict::{Id, IdTriple};

/// A lazy cursor over the triples matching a pattern.
///
/// Returned by [`TripleStore::iter_matching`]; index-backed stores yield
/// triples on demand, so a consumer that stops early (ASK, LIMIT) never
/// pays for the rest of the result.
pub type TripleIter<'a> = Box<dyn Iterator<Item = IdTriple> + 'a>;

/// A dictionary-encoded RDF triple store.
///
/// Implementations behave as *sets* of triples: duplicate inserts are
/// no-ops, and [`TripleStore::iter_matching`] — the one required way to
/// enumerate, which every other reader is defined by — yields each
/// matching triple exactly once, in an order that repeats from call to
/// call while the store is unchanged.
///
/// The hexastore family (everything that reads through [`crate::access`])
/// promises more: its cursor runs in the key order of the ordering the
/// pattern is routed to ([`crate::access::route`]). When all six orderings
/// are kept, the routed ordering lists the pattern's bound positions
/// first, so that key order coincides with plain `(s, p, o)` order
/// restricted to the match set. [`crate::OverlayHexastore`] relies on
/// exactly this — its base is a full store and its delta reads ranges of
/// orderings that list the bound positions first — to merge pending
/// writes over a frozen base with one order-preserving two-way merge per
/// cursor. A partial store that dropped the serving ordering (the COVP
/// baselines among them) walks a surviving one instead and yields in
/// *that* ordering's key order; the triples table promises no particular
/// order at all.
pub trait TripleStore {
    /// A short human-readable name ("Hexastore", "COVP1", …).
    fn name(&self) -> &'static str;

    /// Number of distinct triples stored.
    fn len(&self) -> usize;

    /// True if the store holds no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a triple. Returns `true` if it was not already present.
    fn insert(&mut self, t: IdTriple) -> bool;

    /// Removes a triple. Returns `true` if it was present.
    fn remove(&mut self, t: IdTriple) -> bool;

    /// Membership test.
    fn contains(&self, t: IdTriple) -> bool;

    /// Lazy cursor over the triples matching the pattern: the store's one
    /// enumeration, from which the other readers below are derived.
    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_>;

    /// Visits every triple matching the pattern, in cursor order.
    fn for_each_matching(&self, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
        self.iter_matching(pat).for_each(f)
    }

    /// The `[start, end)` sub-range of the [`Self::iter_matching`] cursor:
    /// yields exactly the triples at positions `start..end` of the
    /// pattern's match sequence, in the same order.
    ///
    /// Contiguous ranges tile the cursor: their concatenation is the
    /// unsplit match sequence. The stores of this workspace all keep this
    /// provided implementation, which skips `start` triples through the
    /// ordinary cursor (linear in `start`). No query path calls it.
    fn iter_matching_range(&self, pat: IdPattern, start: usize, end: usize) -> TripleIter<'_> {
        Box::new(self.iter_matching(pat).skip(start).take(end.saturating_sub(start)))
    }

    /// The index orderings this store can probe directly, in the sextuple
    /// vocabulary of [`crate::advisor`]: a shape whose
    /// [`crate::advisor::serving_indices`] intersect this set is answered
    /// by a single probe rather than a filtered scan.
    ///
    /// The default claims the full sextuple set, which keeps planning
    /// purely selectivity-driven for stores that answer every pattern
    /// uniformly. Stores with a restricted physical design override this
    /// honestly so planners can avoid their degraded access paths.
    fn capabilities(&self) -> IndexSet {
        IndexSet::all()
    }

    /// Number of triples matching the pattern.
    ///
    /// The default implementation counts by walking the cursor; stores
    /// override it where an index answers the count without enumeration.
    fn count_matching(&self, pat: IdPattern) -> usize {
        self.iter_matching(pat).count()
    }

    /// Collects the matching triples into a vector, in cursor order.
    fn matching(&self, pat: IdPattern) -> Vec<IdTriple> {
        self.iter_matching(pat).collect()
    }

    /// Approximate heap usage in bytes (deep, excluding the dictionary,
    /// which all stores share). Powers the Figure 15 reproduction.
    fn heap_bytes(&self) -> usize;

    /// Zero-copy sorted-list capability, if this store has one.
    ///
    /// The default `None` keeps every store on the cursor path; hexastore
    /// variants whose terminal lists live contiguously in memory override
    /// it with `Some(self)` so merge joins can intersect those lists
    /// directly. Layered stores ([`crate::OverlayHexastore`]) deliberately
    /// stay on the default: their logical lists are merges of base and
    /// delta and cannot be borrowed as single slices.
    fn sorted_lists(&self) -> Option<&dyn SortedListAccess> {
        None
    }
}

/// Zero-copy access to the sorted terminal lists behind two-bound access
/// shapes — the raw material of the paper's first-step merge joins.
///
/// Contract: for a pattern with exactly two constant positions,
/// [`SortedListAccess::list`] returns the values of the third (unbound)
/// position as a strictly increasing [`List`] — i.e. the same values, in
/// the same order, that [`TripleStore::iter_matching`] yields for that
/// pattern (each matching triple varies only in the unbound position, and
/// every serving index lists bound positions first, so its terminal list
/// *is* that cursor projection). `None` means the store cannot serve this
/// particular shape zero-copy (e.g. a partial hexastore that dropped
/// every serving index), and the caller must fall back to the cursor.
/// Patterns with fewer than two constants are always `None`: their
/// matches span multiple terminal lists.
///
/// [`SortedListAccess::sorted_list`] is the same list as a borrowed
/// slice. A slab store holds no list as a `u32` slice — a singleton sits
/// by value in a packed slot, a longer list is a run of a packed or
/// Elias–Fano coded key column ([`crate::slab`]) — so it lends a singleton
/// from a `u32` copy of its arena's slot column and a longer list from a
/// `u32` copy of its arena's key column, each of which the first call that
/// needs it decodes and the store then keeps and counts. The method stays only
/// for callers that still need a slice; everything in the workspace
/// reads `list`.
pub trait SortedListAccess {
    /// The sorted unbound-position values for a two-constant pattern as a
    /// borrowed slice, or `None` if this shape is not servable this way.
    fn sorted_list(&self, pat: IdPattern) -> Option<&[Id]>;

    /// The sorted unbound-position values for a two-constant pattern —
    /// a singleton by value, a longer list read in place — or `None` if
    /// this shape is not servable zero-copy. What the query engine's merge
    /// joins read. The default hands out [`SortedListAccess::sorted_list`].
    fn list(&self, pat: IdPattern) -> Option<List<'_>> {
        self.sorted_list(pat).map(List::from)
    }
}

/// Marker for stores whose [`TripleStore::insert`]/[`TripleStore::remove`]
/// actually mutate (rather than panic, as the read-only slab stores —
/// [`crate::FrozenHexastore`], [`crate::PartialHexastore`] and the
/// memory-mapped store — do).
///
/// The string-level [`crate::Dataset`] facade bounds its mutating methods
/// on this trait, so "insert into a frozen dataset" is a compile error
/// instead of a runtime panic.
pub trait MutableStore: TripleStore {}

/// Extends a store from an iterator of triples, returning how many were new.
pub fn extend_store<S: TripleStore + ?Sized>(
    store: &mut S,
    triples: impl IntoIterator<Item = IdTriple>,
) -> usize {
    let mut added = 0;
    for t in triples {
        if store.insert(t) {
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_dict::Id;

    /// Minimal reference implementation used to exercise the default
    /// methods of the trait.
    struct SetStore(std::collections::BTreeSet<IdTriple>);

    impl TripleStore for SetStore {
        fn name(&self) -> &'static str {
            "SetStore"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn insert(&mut self, t: IdTriple) -> bool {
            self.0.insert(t)
        }
        fn remove(&mut self, t: IdTriple) -> bool {
            self.0.remove(&t)
        }
        fn contains(&self, t: IdTriple) -> bool {
            self.0.contains(&t)
        }
        fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
            Box::new(self.0.iter().copied().filter(move |&t| pat.matches(t)))
        }
        fn heap_bytes(&self) -> usize {
            self.0.len() * std::mem::size_of::<IdTriple>()
        }
    }

    #[test]
    fn default_methods_work() {
        let mut s = SetStore(Default::default());
        assert!(s.is_empty());
        let added = extend_store(
            &mut s,
            [
                IdTriple::from((1, 2, 3)),
                IdTriple::from((1, 2, 4)),
                IdTriple::from((1, 2, 3)), // duplicate
            ],
        );
        assert_eq!(added, 2);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.count_matching(IdPattern::sp(Id(1), Id(2))), 2);
        assert_eq!(s.matching(IdPattern::ALL).len(), 2);
        assert_eq!(s.count_matching(IdPattern::o(Id(9))), 0);
    }

    #[test]
    fn default_cursor_and_capabilities() {
        let mut s = SetStore(Default::default());
        s.insert(IdTriple::from((1, 2, 3)));
        s.insert(IdTriple::from((1, 2, 4)));
        s.insert(IdTriple::from((5, 6, 7)));
        // The provided visitor and range reader follow the cursor.
        let all: Vec<IdTriple> = s.iter_matching(IdPattern::ALL).collect();
        let mut visited = Vec::new();
        s.for_each_matching(IdPattern::ALL, &mut |t| visited.push(t));
        assert_eq!(visited, all);
        assert_eq!(s.iter_matching_range(IdPattern::ALL, 1, 3).collect::<Vec<_>>(), all[1..]);
        // The default claims the full sextuple set (uniform-access store).
        assert_eq!(s.capabilities(), IndexSet::all());
        // …but makes no zero-copy sorted-list claim.
        assert!(s.sorted_lists().is_none());
    }
}
