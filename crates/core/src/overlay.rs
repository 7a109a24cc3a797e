//! LSM-style mutable overlay on a frozen slab store.
//!
//! [`OverlayHexastore`] layers a small mutable [`Hexastore`] delta and a
//! tombstone set over an immutable [`FrozenHexastore`] base, giving the
//! frozen form back its write path without giving up its flat-slab
//! query speed. Every [`TripleStore`] cursor is a sorted two-way merge
//! of the delta and the tombstone-filtered base, so the overlay is
//! byte-identical to a mutable store holding the same triples for all
//! eight access patterns — the planner, `hex_query`'s `BgpCursor`,
//! `Dataset<S>` and LIMIT pushdown all work unchanged on top of it.
//!
//! [`OverlayHexastore::compact`] folds the delta and tombstones down
//! into a fresh frozen base through the [`bulk`] permutation-gather
//! builder, emptying the overlay layers.
//!
//! ## Invariants
//!
//! The three layers are kept disjoint so merges never need to dedup:
//!
//! - `delta ∩ base = ∅` — re-inserting a base triple is a no-op, and
//!   inserting over a tombstone clears the tombstone instead.
//! - `tombstones ⊆ base` — removing a delta triple deletes it from the
//!   delta; only base triples are masked.
//! - `delta ∩ tombstones = ∅` — follows from the two above.
//!
//! These make `len` and `count_matching` exact arithmetic:
//! `|base| − |tombstones| + |delta|` per pattern.
//!
//! [`bulk`]: crate::bulk

use crate::advisor::IndexSet;
use crate::frozen::FrozenHexastore;
use crate::pattern::IdPattern;
use crate::stats::DatasetStats;
use crate::store::Hexastore;
use crate::traits::{MutableStore, TripleIter, TripleStore};
use hex_dict::IdTriple;
use std::sync::RwLock;

/// A mutable delta + tombstone overlay on a frozen base store.
///
/// See the [module docs](self) for the layering invariants. Construct
/// one from a frozen base with [`OverlayHexastore::new`], or empty with
/// [`OverlayHexastore::default`].
pub struct OverlayHexastore {
    base: FrozenHexastore,
    delta: Hexastore,
    tombstones: Hexastore,
    /// Bumped by every successful insert/remove. Keys the stats cache:
    /// compaction does *not* bump it, because folding the layers leaves
    /// the stored triple set (and thus the statistics) unchanged.
    version: u64,
    /// Memoized [`DatasetStats`] of [`Self::dataset_stats`], tagged with
    /// the `version` it was computed at. A live serving loop re-plans
    /// with statistics on every refresh; without this cache each refresh
    /// pays a full hashed scan of the store.
    stats_cache: RwLock<Option<(u64, DatasetStats)>>,
}

impl Clone for OverlayHexastore {
    fn clone(&self) -> Self {
        OverlayHexastore {
            base: self.base.clone(),
            delta: self.delta.clone(),
            tombstones: self.tombstones.clone(),
            version: self.version,
            stats_cache: RwLock::new(
                self.stats_cache.read().expect("stats cache poisoned").clone(),
            ),
        }
    }
}

impl Default for OverlayHexastore {
    fn default() -> Self {
        OverlayHexastore::new(FrozenHexastore::from_triples(std::iter::empty()))
    }
}

impl std::fmt::Debug for OverlayHexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayHexastore")
            .field("base", &self.base.len())
            .field("delta", &self.delta.len())
            .field("tombstones", &self.tombstones.len())
            .finish()
    }
}

impl From<FrozenHexastore> for OverlayHexastore {
    fn from(base: FrozenHexastore) -> Self {
        OverlayHexastore::new(base)
    }
}

impl OverlayHexastore {
    /// Wraps a frozen base with empty delta and tombstone layers.
    pub fn new(base: FrozenHexastore) -> Self {
        OverlayHexastore {
            base,
            delta: Hexastore::new(),
            tombstones: Hexastore::new(),
            version: 0,
            stats_cache: RwLock::new(None),
        }
    }

    /// The immutable base generation.
    pub fn base(&self) -> &FrozenHexastore {
        &self.base
    }

    /// Triples inserted since the base was frozen.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Base triples masked by a remove since the base was frozen.
    pub fn tombstone_len(&self) -> usize {
        self.tombstones.len()
    }

    /// Whether any mutations are pending on top of the base.
    pub fn is_dirty(&self) -> bool {
        !self.delta.is_empty() || !self.tombstones.is_empty()
    }

    /// Folds delta and tombstones into a new frozen base generation via
    /// the bulk permutation-gather build, leaving the overlay clean.
    pub fn compact(&mut self) {
        if self.is_dirty() {
            self.install(crate::bulk::compact_frozen(self));
        }
    }

    /// Makes `base` the base generation and empties delta and tombstones.
    /// `base` must hold exactly the overlay's triples, as
    /// [`crate::bulk::compact_frozen`] of it does.
    pub(crate) fn install(&mut self, base: FrozenHexastore) {
        debug_assert_eq!(base.len(), self.len(), "an installed base replaces the merged view");
        self.base = base;
        self.delta = Hexastore::new();
        self.tombstones = Hexastore::new();
    }

    /// The base's matches with tombstoned triples filtered out.
    fn base_iter(&self, pat: IdPattern) -> impl Iterator<Item = IdTriple> + '_ {
        let tombstones = &self.tombstones;
        self.base.iter_matching(pat).filter(move |&t| !tombstones.contains(t))
    }
}

impl TripleStore for OverlayHexastore {
    fn name(&self) -> &'static str {
        "OverlayHexastore"
    }

    fn len(&self) -> usize {
        self.base.len() - self.tombstones.len() + self.delta.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        if self.tombstones.remove(t) {
            debug_assert!(self.base.contains(t));
            self.version += 1;
            return true; // resurrect a masked base triple
        }
        if self.base.contains(t) {
            return false; // already present in the base
        }
        let added = self.delta.insert(t);
        self.version += u64::from(added);
        added
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        if self.delta.remove(t) {
            self.version += 1;
            return true;
        }
        if self.base.contains(t) {
            let masked = self.tombstones.insert(t); // false if already masked
            self.version += u64::from(masked);
            return masked;
        }
        false
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.delta.contains(t) || (self.base.contains(t) && !self.tombstones.contains(t))
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        // Every index permutation lists the pattern's bound positions
        // first, so each per-shape cursor order coincides with plain
        // (s, p, o) order restricted to the match set. Both sides honor
        // that order, and the layering invariants keep them disjoint —
        // a standard two-way merge needs no dedup.
        if self.delta.is_empty() {
            // Common serving case: pure base scan (minus tombstones).
            return Box::new(self.base_iter(pat));
        }
        if self.base.is_empty() {
            return self.delta.iter_matching(pat);
        }
        let mut base = self.base_iter(pat).peekable();
        let mut delta = self.delta.iter_matching(pat).peekable();
        Box::new(std::iter::from_fn(move || match (base.peek(), delta.peek()) {
            (Some(&b), Some(&d)) => {
                if b <= d {
                    debug_assert!(b < d, "delta and base must stay disjoint");
                    base.next()
                } else {
                    delta.next()
                }
            }
            (Some(_), None) => base.next(),
            (None, _) => delta.next(),
        }))
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        // Valid because tombstones ⊆ base and delta ∩ base = ∅.
        self.base.count_matching(pat) - self.tombstones.count_matching(pat)
            + self.delta.count_matching(pat)
    }

    fn capabilities(&self) -> IndexSet {
        // Base, delta and tombstones are all full sextuple stores, so
        // every merged cursor is index-served on both sides.
        IndexSet::all()
    }

    fn heap_bytes(&self) -> usize {
        self.base.heap_bytes() + self.delta.heap_bytes() + self.tombstones.heap_bytes()
    }

    /// Deliberately `None` (restating the trait default): a logical
    /// terminal list here is `(base \ tombstones) ∪ delta`, which has no
    /// contiguous representation to borrow. Queries keep the merged
    /// cursor path; merge-join plans detect the missing capability and
    /// fall back to nested probes.
    fn sorted_lists(&self) -> Option<&dyn crate::traits::SortedListAccess> {
        None
    }
}

impl MutableStore for OverlayHexastore {}

impl crate::stats::StatsSource for OverlayHexastore {
    /// The generic one-pass scan, memoized on the overlay's mutation
    /// counter: repeated calls between mutations return a clone of the
    /// cached statistics instead of rescanning, and any successful
    /// insert/remove invalidates the cache (compaction does not — it
    /// leaves the triple set unchanged).
    fn dataset_stats(&self) -> DatasetStats {
        if let Some((at, stats)) = self.stats_cache.read().expect("stats cache poisoned").as_ref() {
            if *at == self.version {
                return stats.clone();
            }
        }
        let stats = DatasetStats::from_store(self);
        *self.stats_cache.write().expect("stats cache poisoned") =
            Some((self.version, stats.clone()));
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    /// Overlay exercising all three layers: base {a,b,c}, tombstone on
    /// b, delta {d}, plus a resurrected base triple.
    fn layered() -> (OverlayHexastore, Vec<IdTriple>) {
        let base = vec![t(0, 0, 1), t(0, 1, 2), t(1, 0, 2), t(2, 1, 0)];
        let mut ov = OverlayHexastore::new(bulk::build_frozen(base.clone()));
        assert!(ov.remove(t(0, 1, 2))); // tombstone a base triple
        assert!(ov.remove(t(2, 1, 0)));
        assert!(ov.insert(t(2, 1, 0))); // ...and resurrect one
        assert!(ov.insert(t(0, 0, 0))); // delta-only triples
        assert!(ov.insert(t(1, 1, 1)));
        let mut expected = vec![t(0, 0, 1), t(1, 0, 2), t(2, 1, 0), t(0, 0, 0), t(1, 1, 1)];
        expected.sort();
        (ov, expected)
    }

    #[test]
    fn layered_membership_and_len() {
        let (ov, expected) = layered();
        assert_eq!(ov.len(), expected.len());
        for &triple in &expected {
            assert!(ov.contains(triple), "{triple:?}");
        }
        assert!(!ov.contains(t(0, 1, 2)), "tombstoned triple must be gone");
        assert_eq!(ov.delta_len(), 2);
        assert_eq!(ov.tombstone_len(), 1);
    }

    #[test]
    fn insert_and_remove_report_set_semantics() {
        let (mut ov, _) = layered();
        assert!(!ov.insert(t(0, 0, 1)), "re-inserting a base triple");
        assert!(!ov.insert(t(0, 0, 0)), "re-inserting a delta triple");
        assert!(!ov.remove(t(0, 1, 2)), "re-removing a tombstoned triple");
        assert!(!ov.remove(t(9, 9, 9)), "removing a miss");
        assert!(ov.remove(t(0, 0, 0)), "removing a delta triple");
        assert!(!ov.contains(t(0, 0, 0)));
    }

    #[test]
    fn merged_cursors_agree_with_a_plain_mutable_store() {
        let (ov, expected) = layered();
        let plain = Hexastore::from_triples(expected.iter().copied());
        let mut pats = vec![IdPattern::ALL, IdPattern::spo(t(9, 9, 9))];
        for &tr in &expected {
            pats.extend([
                IdPattern::spo(tr),
                IdPattern::sp(tr.s, tr.p),
                IdPattern::so(tr.s, tr.o),
                IdPattern::po(tr.p, tr.o),
                IdPattern::s(tr.s),
                IdPattern::p(tr.p),
                IdPattern::o(tr.o),
            ]);
        }
        for pat in pats {
            let got: Vec<_> = ov.iter_matching(pat).collect();
            let want: Vec<_> = plain.iter_matching(pat).collect();
            assert_eq!(got, want, "cursor order on {pat:?}");
            assert_eq!(ov.count_matching(pat), want.len(), "count on {pat:?}");
        }
    }

    #[test]
    fn compact_folds_layers_into_a_clean_frozen_base() {
        let (mut ov, expected) = layered();
        assert!(ov.is_dirty());
        ov.compact();
        assert!(!ov.is_dirty());
        assert_eq!(ov.len(), expected.len());
        assert_eq!(ov.base().len(), expected.len());
        assert_eq!(ov.matching(IdPattern::ALL), expected);
        // Compacting a clean overlay is a no-op.
        let before = ov.base().clone();
        ov.compact();
        assert!(before == *ov.base());
    }

    #[test]
    fn dataset_stats_are_cached_until_the_next_mutation() {
        use crate::stats::StatsSource;
        let (mut ov, _) = layered();
        assert!(ov.stats_cache.read().unwrap().is_none());
        let first = ov.dataset_stats();
        assert_eq!(first, DatasetStats::from_store(&ov));
        let tagged_at = ov.stats_cache.read().unwrap().as_ref().unwrap().0;
        assert_eq!(tagged_at, ov.version);
        // Repeated calls (and compaction, which changes no triples) hit
        // the cache: the version tag is untouched.
        ov.compact();
        assert_eq!(ov.dataset_stats(), first);
        assert_eq!(ov.stats_cache.read().unwrap().as_ref().unwrap().0, tagged_at);
        // A mutation invalidates: the next call recomputes and re-tags.
        assert!(ov.insert(t(7, 7, 7)));
        let second = ov.dataset_stats();
        assert_ne!(second, first);
        assert_eq!(second, DatasetStats::from_store(&ov));
        assert!(ov.stats_cache.read().unwrap().as_ref().unwrap().0 > tagged_at);
        // No-op mutations keep the cache valid.
        let v = ov.version;
        assert!(!ov.insert(t(7, 7, 7)));
        assert!(!ov.remove(t(8, 8, 8)));
        assert_eq!(ov.version, v);
    }

    #[test]
    fn empty_overlay_behaves_like_an_empty_store() {
        let ov = OverlayHexastore::default();
        assert!(ov.is_empty());
        assert_eq!(ov.count_matching(IdPattern::ALL), 0);
        assert_eq!(ov.matching(IdPattern::ALL), Vec::new());
    }
}
