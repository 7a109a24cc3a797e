//! What `hex_query`'s tests share: the counting store adaptor and the
//! one oracle harness (random BGP strategies plus the brute-force
//! evaluator). The unit tests include this file by `#[path]` from
//! `src/lib.rs`, the integration tests as `mod support`. (The benchmark
//! of record keeps its own adaptor, `benchmark/src/counting.rs`, which
//! counts list hand-outs as well.)

// Each includer uses a subset of the items.
#![allow(dead_code)]

use hex_dict::{Id, IdTriple};
use hex_query::{Bgp, Pattern, PatternTerm, VarId};
use hexastore::{IdPattern, IndexSet, SortedListAccess, TripleIter, TripleStore};
use proptest::prelude::*;
use std::cell::Cell;

/// A read-only [`TripleStore`] wrapper counting the work its callers
/// cause: *probes* — calls that descend an index (`contains`, a visitor
/// or cursor opened, a `count_matching`) — and triples *yielded* by those
/// visitors and cursors. The measurement behind the plan-cache,
/// early-termination and LIMIT-pushdown claims.
///
/// `capabilities` and `sorted_lists` are forwarded, so the planner picks
/// the plan it would pick on the bare store.
pub struct Counting<'a, S> {
    inner: &'a S,
    probes: Cell<usize>,
    yielded: Cell<usize>,
}

impl<'a, S> Counting<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        Counting { inner, probes: Cell::new(0), yielded: Cell::new(0) }
    }

    /// Index descents since construction or the last [`Self::reset`].
    pub fn probes(&self) -> usize {
        self.probes.get()
    }

    /// Triples handed to visitors and cursor consumers since construction
    /// or the last [`Self::reset`].
    pub fn yielded(&self) -> usize {
        self.yielded.get()
    }

    pub fn reset(&self) {
        self.probes.set(0);
        self.yielded.set(0);
    }

    fn probe(&self) {
        self.probes.set(self.probes.get() + 1);
    }

    fn counted<'i>(&'i self, cursor: TripleIter<'i>) -> TripleIter<'i> {
        Box::new(cursor.inspect(|_| self.yielded.set(self.yielded.get() + 1)))
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

/// Largest id the oracle strategies generate, exclusive.
pub const MAX_ID: u32 = 6;

pub fn arb_triple() -> impl Strategy<Value = IdTriple> {
    (0u32..MAX_ID, 0u32..4, 0u32..MAX_ID).prop_map(IdTriple::from)
}

pub fn arb_pattern_term(max_var: u16) -> impl Strategy<Value = PatternTerm> {
    prop_oneof![
        (0u32..MAX_ID).prop_map(|v| PatternTerm::Const(Id(v))),
        (0u16..max_var).prop_map(|v| PatternTerm::Var(VarId(v))),
    ]
}

pub fn arb_bgp() -> impl Strategy<Value = Bgp> {
    proptest::collection::vec(
        (arb_pattern_term(3), arb_pattern_term(3), arb_pattern_term(3))
            .prop_map(|(s, p, o)| Pattern::new(s, p, o)),
        1..4,
    )
    .prop_map(Bgp::new)
}

/// Brute force: try every |all|^k assignment of triples to the k
/// patterns, keeping assignments whose variable bindings are consistent.
/// Slow but obviously correct. Returns the rows sorted and deduplicated.
pub fn brute_force(all: &[IdTriple], bgp: &Bgp) -> Vec<Vec<Option<Id>>> {
    let k = bgp.patterns.len();
    let mut results = Vec::new();
    let mut idx = vec![0usize; k];
    if all.is_empty() {
        return results;
    }
    'outer: loop {
        // Check the current assignment.
        let mut row = bgp.empty_row();
        let mut ok = true;
        'check: for (pat, &i) in bgp.patterns.iter().zip(&idx) {
            let t = all[i];
            for (term, value) in [(pat.s, t.s), (pat.p, t.p), (pat.o, t.o)] {
                match term {
                    PatternTerm::Const(c) => {
                        if c != value {
                            ok = false;
                            break 'check;
                        }
                    }
                    PatternTerm::Var(v) => match row[v.index()] {
                        Some(existing) if existing != value => {
                            ok = false;
                            break 'check;
                        }
                        _ => row[v.index()] = Some(value),
                    },
                }
            }
        }
        if ok {
            results.push(row);
        }
        // Next assignment.
        for slot in (0..k).rev() {
            idx[slot] += 1;
            if idx[slot] < all.len() {
                continue 'outer;
            }
            idx[slot] = 0;
            if slot == 0 {
                break 'outer;
            }
        }
    }
    results.sort();
    results.dedup();
    results
}
