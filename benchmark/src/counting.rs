//! A counting [`TripleStore`] adaptor: exact work counts beside the
//! wall-clock, so results transfer across machines.
//!
//! It forwards `capabilities()` and `sorted_lists()`, so the planner
//! chooses the plan it would choose on the bare store. A *probe* is one
//! call that descends an index (a cursor opened, a count, a membership
//! test, a sorted list handed out); *touched* counts the triples those
//! cursors yielded plus the ids in the lists handed out.

use hex_dict::{Id, IdTriple};
use hexastore::advisor::IndexSet;
use hexastore::{IdPattern, SortedListAccess, TripleIter, TripleStore};
use std::cell::Cell;

pub struct Counting<S> {
    inner: S,
    probes: Cell<u64>,
    touched: Cell<u64>,
}

impl<S> Counting<S> {
    pub fn new(inner: S) -> Counting<S> {
        Counting { inner, probes: Cell::new(0), touched: Cell::new(0) }
    }

    /// `(probes, triples touched)` since construction.
    pub fn counts(&self) -> (u64, u64) {
        (self.probes.get(), self.touched.get())
    }

    fn probe(&self) {
        self.probes.set(self.probes.get() + 1);
    }

    fn touch(&self, n: u64) {
        self.touched.set(self.touched.get() + n);
    }
}

impl<S: TripleStore> TripleStore for Counting<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn insert(&mut self, t: IdTriple) -> bool {
        self.inner.insert(t)
    }
    fn remove(&mut self, t: IdTriple) -> bool {
        self.inner.remove(t)
    }
    fn contains(&self, t: IdTriple) -> bool {
        self.probe();
        self.inner.contains(t)
    }
    fn for_each_matching(&self, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
        self.probe();
        self.inner.for_each_matching(pat, &mut |t| {
            self.touch(1);
            f(t)
        });
    }
    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        self.probe();
        Box::new(self.inner.iter_matching(pat).inspect(|_| self.touch(1)))
    }
    fn iter_matching_range(&self, pat: IdPattern, start: usize, end: usize) -> TripleIter<'_> {
        self.probe();
        Box::new(self.inner.iter_matching_range(pat, start, end).inspect(|_| self.touch(1)))
    }
    fn capabilities(&self) -> IndexSet {
        self.inner.capabilities()
    }
    fn count_matching(&self, pat: IdPattern) -> usize {
        self.probe();
        self.inner.count_matching(pat)
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn sorted_lists(&self) -> Option<&dyn SortedListAccess> {
        self.inner.sorted_lists().map(|_| self as &dyn SortedListAccess)
    }
}

impl<S: TripleStore> SortedListAccess for Counting<S> {
    fn sorted_list(&self, pat: IdPattern) -> Option<&[Id]> {
        self.probe();
        let list = self.inner.sorted_lists()?.sorted_list(pat)?;
        self.touch(list.len() as u64);
        Some(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexastore::Hexastore;

    #[test]
    fn counts_probes_and_touched_and_forwards_capabilities() {
        let bare = Hexastore::from_triples((0..10).map(|i| IdTriple::from((1, 2, 10 + i))));
        let caps = bare.capabilities();
        let c = Counting::new(bare);
        assert_eq!(c.capabilities(), caps);
        assert!(c.sorted_lists().is_some());
        assert_eq!(c.iter_matching(IdPattern::s(Id(1))).count(), 10);
        assert_eq!(c.counts(), (1, 10));
        let list = c.sorted_lists().unwrap().sorted_list(IdPattern::sp(Id(1), Id(2))).unwrap();
        assert_eq!(list.len(), 10);
        assert_eq!(c.counts(), (2, 20));
        assert_eq!(c.count_matching(IdPattern::ALL), 10);
        assert_eq!(c.counts(), (3, 20));
    }
}
