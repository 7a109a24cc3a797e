//! The one counting store adaptor `hex_query`'s tests share: the unit
//! tests include this file by `#[path]` from `src/lib.rs`, the integration
//! tests as `mod support`. (The benchmark of record keeps its own,
//! `benchmark/src/counting.rs`, which counts list hand-outs as well.)

// Each includer uses a subset of the accessors.
#![allow(dead_code)]

use hex_dict::IdTriple;
use hexastore::{IdPattern, IndexSet, SortedListAccess, TripleIter, TripleStore};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A read-only [`TripleStore`] wrapper counting the work its callers
/// cause: *probes* — calls that descend an index (`contains`, a visitor
/// or cursor opened, a `count_matching`) — and triples *yielded* by those
/// visitors and cursors. The measurement behind the plan-cache,
/// early-termination and LIMIT-pushdown claims.
///
/// `capabilities`, `sorted_lists` and `iter_matching_range` are forwarded,
/// so the planner picks the plan it would pick on the bare store and
/// shard starts stay seeks rather than counted skip-walks. Counters are
/// atomics, so the wrapper is `Sync` whenever the store is and can sit
/// under `Plan::run_parallel`.
pub struct Counting<'a, S> {
    inner: &'a S,
    probes: AtomicUsize,
    yielded: AtomicUsize,
}

impl<'a, S> Counting<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        Counting { inner, probes: AtomicUsize::new(0), yielded: AtomicUsize::new(0) }
    }

    /// Index descents since construction or the last [`Self::reset`].
    pub fn probes(&self) -> usize {
        self.probes.load(Relaxed)
    }

    /// Triples handed to visitors and cursor consumers since construction
    /// or the last [`Self::reset`].
    pub fn yielded(&self) -> usize {
        self.yielded.load(Relaxed)
    }

    pub fn reset(&self) {
        self.probes.store(0, Relaxed);
        self.yielded.store(0, Relaxed);
    }

    fn probe(&self) {
        self.probes.fetch_add(1, Relaxed);
    }

    fn counted<'i>(&'i self, cursor: TripleIter<'i>) -> TripleIter<'i> {
        Box::new(cursor.inspect(|_| {
            self.yielded.fetch_add(1, Relaxed);
        }))
    }
}

impl<S: TripleStore> TripleStore for Counting<'_, S> {
    fn name(&self) -> &'static str {
        "Counting"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn insert(&mut self, _: IdTriple) -> bool {
        unimplemented!("read-only wrapper")
    }
    fn remove(&mut self, _: IdTriple) -> bool {
        unimplemented!("read-only wrapper")
    }
    fn contains(&self, t: IdTriple) -> bool {
        self.probe();
        self.inner.contains(t)
    }
    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        self.probe();
        self.counted(self.inner.iter_matching(pat))
    }
    fn iter_matching_range(&self, pat: IdPattern, start: usize, end: usize) -> TripleIter<'_> {
        self.probe();
        self.counted(self.inner.iter_matching_range(pat, start, end))
    }
    fn count_matching(&self, pat: IdPattern) -> usize {
        self.probe();
        self.inner.count_matching(pat)
    }
    fn capabilities(&self) -> IndexSet {
        self.inner.capabilities()
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn sorted_lists(&self) -> Option<&dyn SortedListAccess> {
        self.inner.sorted_lists()
    }
}
