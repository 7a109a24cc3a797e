//! A property-keyed two-level index: the building block of COVP stores.
//!
//! One [`PropIndex`] over a `pso` ordering is the paper's representation
//! of the vertical-partitioning scheme: "the pso indexing groups together
//! multiple objects … related to the same subject s by a unique property p"
//! (§5). The same view over a `pos` ordering is the optional second copy
//! that upgrades COVP1 to COVP2. Each ordering is kept in its own arena,
//! not shared — COVP materializes each copy separately, which is why COVP2
//! pays double storage for properties.

use hex_dict::Id;
use hexastore::access::{OrderingRead, SlabOrdering};

/// A borrowed view of one property-headed slab ordering: `property → key
/// → sorted list`, where `key` is the subject (pso) or the object (pos).
#[derive(Clone, Copy, Debug)]
pub struct PropIndex<'a> {
    ordering: SlabOrdering<'a>,
}

impl<'a> PropIndex<'a> {
    /// Views one pso or pos ordering.
    pub(crate) fn new(ordering: SlabOrdering<'a>) -> Self {
        PropIndex { ordering }
    }

    /// Sorted iterator over the property keys.
    pub fn properties(self) -> impl Iterator<Item = Id> + 'a {
        self.ordering.0.keys.iter().copied()
    }

    /// The sorted items for `(p, key)`; empty slice if absent.
    pub fn items(self, p: Id, key: Id) -> &'a [Id] {
        self.ordering.list(p, key)
    }

    /// Sorted iterator over one property table: `(key, sorted items)`.
    pub fn table(self, p: Id) -> impl Iterator<Item = (Id, &'a [Id])> + 'a {
        self.ordering.division(p)
    }

    /// The sorted first-column keys of one property table.
    pub fn table_keys(self, p: Id) -> Vec<Id> {
        self.table(p).map(|(key, _)| key).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::Covp1;
    use hex_dict::{Id, IdTriple};

    fn id(v: u32) -> Id {
        Id(v)
    }

    fn t(p: u32, key: u32, item: u32) -> IdTriple {
        IdTriple::from((key, p, item))
    }

    #[test]
    fn insert_groups_multiple_items_per_key() {
        // §5: pso "groups together multiple objects {o1..on} related to the
        // same subject s by a unique property p" — unlike the paper's view
        // of raw vertical partitioning, which repeats the subject per row.
        let store = Covp1::from_triples([t(1, 10, 7), t(1, 10, 3), t(1, 10, 7)]);
        assert_eq!(store.pso().items(id(1), id(10)), &[id(3), id(7)]);
        assert_eq!(store.pso().table(id(1)).count(), 1);
    }

    #[test]
    fn table_iteration_is_key_sorted() {
        let store = Covp1::from_triples([t(2, 30, 1), t(2, 10, 1), t(2, 20, 1)]);
        let ix = store.pso();
        let keys: Vec<Id> = ix.table(id(2)).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![id(10), id(20), id(30)]);
        assert_eq!(ix.table_keys(id(2)), keys);
        assert_eq!(ix.table(id(2)).map(|(_, items)| items.len()).sum::<usize>(), 3);
    }

    #[test]
    fn distinct_properties_have_distinct_tables() {
        let store = Covp1::from_triples([t(1, 10, 5), t(2, 10, 6)]);
        let ix = store.pso();
        let props: Vec<Id> = ix.properties().collect();
        assert_eq!(props, vec![id(1), id(2)]);
        assert_eq!(ix.items(id(1), id(10)), &[id(5)]);
        assert_eq!(ix.items(id(2), id(10)), &[id(6)]);
        assert_eq!(ix.items(id(3), id(10)), &[] as &[Id]);
    }
}
