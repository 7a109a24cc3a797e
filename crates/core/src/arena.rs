//! Arena of shared terminal lists.
//!
//! Section 4.1 of the paper observes that the six indices pair up — spo/pso
//! share terminal **object** lists, sop/osp share **property** lists, and
//! pos/ops share **subject** lists — so "only a single copy of each such
//! list is needed". This arena is that single copy: both indices of a pair
//! store the same [`ListId`] handle into one arena.
//!
//! Lists are sorted, duplicate-free vectors of [`Id`]s. Emptied lists are
//! recycled through a free list so heavy insert/remove churn does not leak
//! slots.

use crate::sorted;
use hex_dict::Id;

/// Handle to one terminal list inside a [`ListArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ListId(u32);

impl ListId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena of sorted id lists with slot reuse.
#[derive(Clone, Default)]
pub struct ListArena {
    lists: Vec<Vec<Id>>,
    free: Vec<ListId>,
}

impl ListArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ListArena::default()
    }

    /// Creates an empty arena whose spine has room for `lists` terminal
    /// lists. The bulk loader counts lists up front so appends through
    /// [`Self::alloc_sorted`] never reallocate the spine.
    pub fn with_capacity(lists: usize) -> Self {
        ListArena { lists: Vec::with_capacity(lists), free: Vec::new() }
    }

    /// Allocates a new single-element list.
    pub fn alloc(&mut self, first: Id) -> ListId {
        if let Some(id) = self.free.pop() {
            let slot = &mut self.lists[id.index()];
            debug_assert!(slot.is_empty());
            slot.push(first);
            id
        } else {
            let id = ListId(
                u32::try_from(self.lists.len()).expect("list arena overflow: more than 2^32 lists"),
            );
            self.lists.push(vec![first]);
            id
        }
    }

    /// Allocates a list from an already-sorted, duplicate-free vector.
    /// Used by the bulk loader.
    pub fn alloc_sorted(&mut self, items: Vec<Id>) -> ListId {
        debug_assert!(sorted::is_sorted_set(&items));
        debug_assert!(!items.is_empty());
        if let Some(id) = self.free.pop() {
            self.lists[id.index()] = items;
            id
        } else {
            let id = ListId(
                u32::try_from(self.lists.len()).expect("list arena overflow: more than 2^32 lists"),
            );
            self.lists.push(items);
            id
        }
    }

    /// The sorted items of a list.
    #[inline]
    pub fn get(&self, id: ListId) -> &[Id] {
        &self.lists[id.index()]
    }

    /// Inserts an id into a list, keeping it sorted. Returns `false` if the
    /// id was already present.
    pub fn insert(&mut self, id: ListId, item: Id) -> bool {
        sorted::insert(&mut self.lists[id.index()], item)
    }

    /// Removes an id from a list. Returns `(removed, now_empty)`.
    pub fn remove(&mut self, id: ListId, item: Id) -> (bool, bool) {
        let list = &mut self.lists[id.index()];
        let removed = sorted::remove(list, &item);
        (removed, list.is_empty())
    }

    /// Returns an emptied list's slot to the free pool. The caller must have
    /// removed the last element and dropped every index entry that pointed
    /// at this list.
    pub fn release(&mut self, id: ListId) {
        let slot = &mut self.lists[id.index()];
        debug_assert!(slot.is_empty());
        slot.shrink_to_fit();
        self.free.push(id);
    }

    /// Number of live (non-recycled) lists.
    pub fn live_lists(&self) -> usize {
        self.lists.len() - self.free.len()
    }

    /// Number of slots ever allocated, including recycled ones — the size
    /// a `ListId`-indexed side table needs (the freezer's remap table).
    pub(crate) fn slot_count(&self) -> usize {
        self.lists.len()
    }

    /// Total number of id entries across all lists. This is the paper's
    /// "list" contribution to index space.
    pub fn total_items(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Heap bytes: every list's capacity plus the spine vectors.
    pub fn heap_bytes(&self) -> usize {
        let spine = self.lists.capacity() * std::mem::size_of::<Vec<Id>>()
            + self.free.capacity() * std::mem::size_of::<ListId>();
        let items: usize =
            self.lists.iter().map(|l| l.capacity() * std::mem::size_of::<Id>()).sum();
        spine + items
    }

    /// Shrinks every list and the spine to fit.
    pub fn shrink_to_fit(&mut self) {
        for l in &mut self.lists {
            l.shrink_to_fit();
        }
        self.lists.shrink_to_fit();
        self.free.shrink_to_fit();
    }
}

impl std::fmt::Debug for ListArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListArena")
            .field("live_lists", &self.live_lists())
            .field("total_items", &self.total_items())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> Id {
        Id(v)
    }

    #[test]
    fn alloc_and_get() {
        let mut a = ListArena::new();
        let l = a.alloc(id(5));
        assert_eq!(a.get(l), &[id(5)]);
        assert_eq!(a.live_lists(), 1);
        assert_eq!(a.total_items(), 1);
    }

    #[test]
    fn insert_keeps_sorted_and_dedups() {
        let mut a = ListArena::new();
        let l = a.alloc(id(5));
        assert!(a.insert(l, id(2)));
        assert!(a.insert(l, id(9)));
        assert!(!a.insert(l, id(5)));
        assert_eq!(a.get(l), &[id(2), id(5), id(9)]);
    }

    #[test]
    fn remove_reports_emptiness() {
        let mut a = ListArena::new();
        let l = a.alloc(id(1));
        a.insert(l, id(2));
        assert_eq!(a.remove(l, id(3)), (false, false));
        assert_eq!(a.remove(l, id(1)), (true, false));
        assert_eq!(a.remove(l, id(2)), (true, true));
    }

    #[test]
    fn released_slots_are_recycled() {
        let mut a = ListArena::new();
        let l1 = a.alloc(id(1));
        let (_, empty) = a.remove(l1, id(1));
        assert!(empty);
        a.release(l1);
        assert_eq!(a.live_lists(), 0);
        let l2 = a.alloc(id(7));
        assert_eq!(l1, l2, "slot should be reused");
        assert_eq!(a.get(l2), &[id(7)]);
        assert_eq!(a.live_lists(), 1);
    }

    #[test]
    fn alloc_sorted_bulk() {
        let mut a = ListArena::new();
        let l = a.alloc_sorted(vec![id(1), id(4), id(9)]);
        assert_eq!(a.get(l), &[id(1), id(4), id(9)]);
        assert_eq!(a.total_items(), 3);
    }

    #[test]
    fn heap_bytes_nonzero_after_alloc() {
        let mut a = ListArena::new();
        assert_eq!(a.heap_bytes(), 0);
        let l = a.alloc(id(1));
        for i in 2..100 {
            a.insert(l, id(i));
        }
        assert!(a.heap_bytes() >= 99 * std::mem::size_of::<Id>());
        a.shrink_to_fit();
        assert!(a.heap_bytes() >= 99 * std::mem::size_of::<Id>());
    }
}
